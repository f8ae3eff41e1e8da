// Package pmcheck is the durability-bug detector: the repository's
// equivalent of Intel's pmemcheck. It replays a PM operation trace through
// the pmem durability state machine and reports, per static store site,
// whether the store can reach a durability point (a pm_checkpoint or the
// end of the program) without being flushed and fenced. Reports carry
// everything the fixer needs: the offending store's call stack, the bug
// class, and the durability points that observed the violation.
package pmcheck

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// Report is one durability bug, aggregated over all dynamic occurrences of
// the same static store site.
type Report struct {
	// Store is a representative store event (the first dynamic instance
	// that violated).
	Store *trace.Event
	// NeedFlush / NeedFence record which mechanisms were missing across
	// the observed violations (a site can be missing-flush at one
	// durability point and missing-flush&fence at another; the union is
	// what the fix must provide).
	NeedFlush bool
	NeedFence bool
	// Checkpoints are the durability-point events at which the site was
	// caught non-durable, deduplicated by site.
	Checkpoints []*trace.Event
	// Stacks are the distinct call stacks (innermost first) through which
	// the site was reached, deduplicated; the hoisting heuristic only
	// considers call sites common to all of them.
	Stacks [][]trace.Frame
	// FlushSites are the sites of flush instructions that flushed the
	// store when a missing-fence violation was observed — the fence fix
	// is inserted after them (for non-temporal stores the "flush site" is
	// the store itself).
	FlushSites []trace.Frame
	// Occurrences counts dynamic violations.
	Occurrences int
	// CrossThread marks a report produced by cross-thread publish
	// detection: the store (issued by thread Tid) was still pending when
	// thread PubTid made a pointer to its cache line durable. The fix is
	// the same as for any unordered store — flush and fence in the
	// issuing thread before the publish — so NeedFlush/NeedFence are
	// both set.
	CrossThread bool
	// Tid is the thread that issued the store; PubTid the thread that
	// durably published a pointer to it (CrossThread reports only).
	Tid    int
	PubTid int
}

// Class returns the paper's bug classification for the report.
func (r *Report) Class() pmem.BugClass {
	switch {
	case r.NeedFlush && r.NeedFence:
		return pmem.MissingFlushFence
	case r.NeedFlush:
		return pmem.MissingFlush
	default:
		return pmem.MissingFence
	}
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %s", r.Class(), r.Store.Site())
	fmt.Fprintf(&b, " (%d occurrence(s), addr 0x%x size %d)", r.Occurrences, r.Store.Addr, r.Store.Size)
	if r.CrossThread {
		fmt.Fprintf(&b, "\n\tunordered publish: store by thread %d was pending when thread %d durably published its address", r.Tid, r.PubTid)
	}
	for _, f := range r.Store.Stack[1:] {
		fmt.Fprintf(&b, "\n\tcalled from %s", f)
	}
	return b.String()
}

// SiteKey identifies a static program location (for deduplication).
type SiteKey struct {
	Func    string
	InstrID int
}

// Key returns the report's site key.
func (r *Report) Key() SiteKey {
	s := r.Store.Site()
	return SiteKey{Func: s.Func, InstrID: s.InstrID}
}

// Result is the detector output for one trace.
type Result struct {
	Reports []*Report
	// RedundantFlushes / RedundantFences are performance diagnostics
	// (§7): reported, never fixed.
	RedundantFlushes []*trace.Event
	RedundantFences  []*trace.Event
	// Stats.
	Stores      int
	Flushes     int
	Fences      int
	Checkpoints int
	// Threads is the number of distinct threads observed in the trace
	// (1 for single-threaded programs).
	Threads int
	// CrossThreadPublishes counts dynamic unordered cross-thread
	// publish observations (before per-site aggregation).
	CrossThreadPublishes int
	// LinesTouched counts the distinct cache lines written by the
	// trace's stores — the working-set figure the telemetry layer
	// reports. Computed during the offline replay, never by the
	// interpreter.
	LinesTouched int
}

// Clean reports whether no durability bugs were found.
func (res *Result) Clean() bool { return len(res.Reports) == 0 }

// UniqueSites counts the distinct static store sites among the reports —
// how pmemcheck (and the paper) counts bugs. A site reached through
// several call chains yields several reports (each may need its own
// fix placement) but remains one bug.
func (res *Result) UniqueSites() int {
	seen := map[SiteKey]bool{}
	for _, r := range res.Reports {
		seen[r.Key()] = true
	}
	return len(seen)
}

// Summary renders a human-readable digest.
func (res *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "pmcheck: %d store(s), %d flush(es), %d fence(s), %d durability point(s)\n",
		res.Stores, res.Flushes, res.Fences, res.Checkpoints)
	if res.Clean() {
		b.WriteString("pmcheck: no durability bugs found\n")
	} else {
		fmt.Fprintf(&b, "pmcheck: %d durability bug(s):\n", len(res.Reports))
		for i, r := range res.Reports {
			fmt.Fprintf(&b, "[%d] %s\n", i+1, r)
		}
	}
	if n := res.CrossThreadPublishes; n > 0 {
		fmt.Fprintf(&b, "pmcheck: %d cross-thread unordered publish(es) observed\n", n)
	}
	if n := len(res.RedundantFlushes); n > 0 {
		fmt.Fprintf(&b, "pmcheck: %d redundant flush(es) (performance diagnostic)\n", n)
	}
	if n := len(res.RedundantFences); n > 0 {
		fmt.Fprintf(&b, "pmcheck: %d redundant fence(s) (performance diagnostic)\n", n)
	}
	return b.String()
}

// Check replays the trace and aggregates durability violations by store
// site. Reports are ordered by the first violating store's sequence.
//
// The replay orders events by their position in the trace (which is
// sequence order for every recorded trace): the tracker is fed event
// indices as sequence numbers, so a violation's store and flush map back
// to their events by slice indexing.
func Check(t *trace.Trace) *Result {
	res := &Result{}
	tracker := pmem.NewTracker()
	lines := make(map[uint64]bool)
	touch := func(addr uint64, size int) {
		last := addr
		if size > 0 {
			last = addr + uint64(size) - 1
		}
		for l := pmem.LineOf(addr); l <= pmem.LineOf(last); l += pmem.LineSize {
			lines[l] = true
		}
	}
	in := newInterner(len(t.Events))

	maxTid := 0
	seeTid := func(tid int) {
		if tid > maxTid {
			maxTid = tid
		}
	}
	// storeData reconstructs a store's payload for replay: bytes are zero
	// except when the event carries a value (8-byte stores of PM addresses
	// record Val so publish detection can follow the pointer). The tracker
	// copies the payload, so one buffer serves every store.
	var buf []byte
	storeData := func(e *trace.Event) []byte {
		if cap(buf) < e.Size {
			buf = make([]byte, e.Size)
		}
		data := buf[:e.Size]
		clear(data)
		if e.Val != 0 && e.Size == 8 {
			v := e.Val
			for i := 0; i < 8; i++ {
				data[i] = byte(v)
				v >>= 8
			}
		}
		return data
	}

	for i, e := range t.Events {
		switch e.Kind {
		case trace.KindStore:
			res.Stores++
			touch(e.Addr, e.Size)
			seeTid(e.Tid)
			tracker.OnStoreT(i, e.Tid, e.Addr, storeData(e))
		case trace.KindNTStore:
			res.Stores++
			touch(e.Addr, e.Size)
			seeTid(e.Tid)
			tracker.OnNTStoreT(i, e.Tid, e.Addr, storeData(e))
		case trace.KindFlush:
			res.Flushes++
			seeTid(e.Tid)
			before := len(tracker.RedundantFlushes)
			tracker.OnFlushT(i, e.Tid, e.FlushK.Ordered(), e.Addr)
			if len(tracker.RedundantFlushes) > before {
				res.RedundantFlushes = append(res.RedundantFlushes, e)
			}
		case trace.KindFence:
			res.Fences++
			seeTid(e.Tid)
			before := tracker.RedundantFences
			tracker.OnFenceT(i, e.Tid)
			if tracker.RedundantFences > before {
				res.RedundantFences = append(res.RedundantFences, e)
			}
		case trace.KindCheckpoint:
			res.Checkpoints++
			ck := in.site(t.Events, i)
			for _, v := range tracker.OnCheckpoint(i) {
				id := in.report(t.Events, v.Store.Seq)
				rep := in.reports[id]
				rep.Occurrences++
				switch v.Class {
				case pmem.MissingFlush:
					rep.NeedFlush = true
				case pmem.MissingFence:
					rep.NeedFence = true
				case pmem.MissingFlushFence:
					rep.NeedFlush = true
					rep.NeedFence = true
				}
				if v.Class == pmem.MissingFence && v.Store.FlushSeq >= 0 {
					fs := in.site(t.Events, v.Store.FlushSeq)
					if in.flushSeen.add(fs, id) {
						rep.FlushSites = append(rep.FlushSites, t.Events[v.Store.FlushSeq].Site())
					}
				}
				if in.ckptSeen.add(ck, id) {
					rep.Checkpoints = append(rep.Checkpoints, e)
				}
			}
		}
	}
	// Cross-thread unordered publishes: the tracker flagged stores that
	// were still pending when another thread durably published a pointer
	// to their cache line. Each folds into the referent store's site
	// report — the fix (flush + fence in the issuing thread) is the same
	// mechanism as any unordered store, but the provenance explains why
	// program order alone never exposes it.
	res.CrossThreadPublishes = len(tracker.Publishes)
	for _, p := range tracker.Publishes {
		rep := in.reports[in.report(t.Events, p.Referent.Seq)]
		rep.Occurrences++
		rep.NeedFlush = true
		rep.NeedFence = true
		rep.CrossThread = true
		rep.Tid = p.Referent.Tid
		rep.PubTid = p.PubTid
	}
	res.Reports = in.reports
	sort.Slice(res.Reports, func(i, j int) bool {
		return res.Reports[i].Store.Seq < res.Reports[j].Store.Seq
	})
	res.LinesTouched = len(lines)
	res.Threads = maxTid + 1
	return res
}

// interner gives Check's per-violation work dense integer ids. Reports
// deduplicate by (store site, call stack): the same static store reached
// through two different call chains is two bugs — each chain needs its
// own (possibly hoisted) fix, and the persistent subprogram
// transformation naturally shares clones between them. The site is the
// stack's innermost frame, so the stack alone is the key. A store event's
// report id is interned at its first violation, by a hash of its stack;
// every later violation of the same pending store is a slice index.
type interner struct {
	// reportOf / siteOf memoize, per event index, the event's report id
	// and site id (-1 until first asked).
	reportOf []int32
	siteOf   []int32
	reports  []*Report
	// byStack maps a stackHash to the reports whose stacks hash to it.
	byStack map[uint64][]int32
	siteID  map[SiteKey]int32
	// ckptSeen / flushSeen record which checkpoint and flush sites each
	// report already lists.
	ckptSeen, flushSeen pairSet
}

func newInterner(events int) *interner {
	in := &interner{
		reportOf: make([]int32, events),
		siteOf:   make([]int32, events),
		byStack:  make(map[uint64][]int32),
		siteID:   make(map[SiteKey]int32),
	}
	for i := range in.reportOf {
		in.reportOf[i] = -1
		in.siteOf[i] = -1
	}
	return in
}

// report returns the id of the report for store event i, creating the
// report at the first violation of its (site, stack).
func (in *interner) report(events []*trace.Event, i int) int32 {
	if id := in.reportOf[i]; id >= 0 {
		return id
	}
	se := events[i]
	h := stackHash(se.Stack)
	for _, id := range in.byStack[h] {
		if sameStack(in.reports[id].Store.Stack, se.Stack) {
			in.reportOf[i] = id
			return id
		}
	}
	id := int32(len(in.reports))
	in.byStack[h] = append(in.byStack[h], id)
	in.reports = append(in.reports, &Report{Store: se, Stacks: [][]trace.Frame{se.Stack}})
	in.reportOf[i] = id
	return id
}

// stackHash is FNV-1a over the (Func, InstrID) frames stackKey renders.
func stackHash(stack []trace.Frame) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, f := range stack {
		for i := 0; i < len(f.Func); i++ {
			mix(f.Func[i])
		}
		for id, k := uint64(f.InstrID), 0; k < 8; k++ {
			mix(byte(id >> (8 * k)))
		}
	}
	return h
}

// sameStack reports whether two stacks have the same stackKey.
func sameStack(a, b []trace.Frame) bool {
	return slices.EqualFunc(a, b, func(x, y trace.Frame) bool {
		return x.Func == y.Func && x.InstrID == y.InstrID
	})
}

// site returns the id of event i's static site.
func (in *interner) site(events []*trace.Event, i int) int32 {
	if id := in.siteOf[i]; id >= 0 {
		return id
	}
	s := events[i].Site()
	k := SiteKey{Func: s.Func, InstrID: s.InstrID}
	id, ok := in.siteID[k]
	if !ok {
		id = int32(len(in.siteID))
		in.siteID[k] = id
	}
	in.siteOf[i] = id
	return id
}

// pairSet is a dense set of (site id, report id) pairs.
type pairSet [][]bool

// add inserts the pair and reports whether it was absent.
func (s *pairSet) add(site, report int32) bool {
	for int(site) >= len(*s) {
		*s = append(*s, nil)
	}
	row := (*s)[site]
	if int(report) >= len(row) {
		n := max(int(report)+1, 2*len(row))
		row = append(row, make([]bool, n-len(row))...)
		(*s)[site] = row
	}
	if row[report] {
		return false
	}
	row[report] = true
	return true
}

// Needs records which durability mechanisms a store site lacks, with the
// bug classes decomposed into their mechanism components (missing-flush&fence
// sets both). Detectors that aggregate differently across call stacks and
// durability points — the dynamic checker unions class flags per (site,
// stack), a static checker per CFG path — still agree on this shape, so it
// is the unit of the static/dynamic agreement harness.
type Needs struct {
	Flush bool
	Fence bool
}

// Covers reports whether n provides at least everything o needs.
func (n Needs) Covers(o Needs) bool {
	return (n.Flush || !o.Flush) && (n.Fence || !o.Fence)
}

func (n Needs) String() string {
	switch {
	case n.Flush && n.Fence:
		return "flush+fence"
	case n.Flush:
		return "flush"
	case n.Fence:
		return "fence"
	}
	return "none"
}

// NeedsBySite folds the reports into per-site mechanism needs.
func (res *Result) NeedsBySite() map[SiteKey]Needs {
	out := make(map[SiteKey]Needs, len(res.Reports))
	for _, r := range res.Reports {
		n := out[r.Key()]
		n.Flush = n.Flush || r.NeedFlush
		n.Fence = n.Fence || r.NeedFence
		out[r.Key()] = n
	}
	return out
}

// DedupeByClass merges duplicate reports of one (store site, bug class)
// observation into one, so a hot loop that drives the same buggy store
// through N dynamic violations reaches the fixer once. The merged report
// keeps the earliest representative store, sums occurrences, and unions
// stacks, checkpoints, and flush sites. Two reports stay separate when
// their bug classes differ (they need different fixes) or when they were
// reached through different call-chain sets: each chain may need its own,
// differently hoisted fix, and collapsing them would artificially cap the
// hoisting heuristic at the chains' common call suffix (defeating §4.2.4
// clone reuse).
func DedupeByClass(reports []*Report) []*Report {
	type key struct {
		site   SiteKey
		flush  bool
		fence  bool
		stacks string
	}
	stacksKeyOf := func(r *Report) string {
		keys := make([]string, 0, len(r.Stacks))
		for _, s := range r.Stacks {
			keys = append(keys, stackKey(s))
		}
		sort.Strings(keys)
		return strings.Join(keys, "|")
	}
	merged := make(map[key]*Report)
	var order []key
	for _, r := range reports {
		k := key{site: r.Key(), flush: r.NeedFlush, fence: r.NeedFence, stacks: stacksKeyOf(r)}
		m := merged[k]
		if m == nil {
			cp := *r
			cp.Stacks = append([][]trace.Frame(nil), r.Stacks...)
			cp.Checkpoints = append([]*trace.Event(nil), r.Checkpoints...)
			cp.FlushSites = append([]trace.Frame(nil), r.FlushSites...)
			merged[k] = &cp
			order = append(order, k)
			continue
		}
		if r.Store.Seq < m.Store.Seq {
			m.Store = r.Store
		}
		m.Occurrences += r.Occurrences
		if r.CrossThread && !m.CrossThread {
			m.CrossThread = true
			m.Tid, m.PubTid = r.Tid, r.PubTid
		}
		seenStack := make(map[string]bool, len(m.Stacks))
		for _, s := range m.Stacks {
			seenStack[stackKey(s)] = true
		}
		for _, s := range r.Stacks {
			if !seenStack[stackKey(s)] {
				seenStack[stackKey(s)] = true
				m.Stacks = append(m.Stacks, s)
			}
		}
		seenCkpt := make(map[SiteKey]bool, len(m.Checkpoints))
		for _, c := range m.Checkpoints {
			seenCkpt[SiteKey{Func: c.Site().Func, InstrID: c.Site().InstrID}] = true
		}
		for _, c := range r.Checkpoints {
			ck := SiteKey{Func: c.Site().Func, InstrID: c.Site().InstrID}
			if !seenCkpt[ck] {
				seenCkpt[ck] = true
				m.Checkpoints = append(m.Checkpoints, c)
			}
		}
		seenFlush := make(map[SiteKey]bool, len(m.FlushSites))
		for _, f := range m.FlushSites {
			seenFlush[SiteKey{Func: f.Func, InstrID: f.InstrID}] = true
		}
		for _, f := range r.FlushSites {
			fk := SiteKey{Func: f.Func, InstrID: f.InstrID}
			if !seenFlush[fk] {
				seenFlush[fk] = true
				m.FlushSites = append(m.FlushSites, f)
			}
		}
	}
	out := make([]*Report, 0, len(order))
	for _, k := range order {
		out = append(out, merged[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Store.Seq < out[j].Store.Seq })
	return out
}

// stackKey renders a stack as a deduplication key.
func stackKey(stack []trace.Frame) string {
	var b strings.Builder
	for _, f := range stack {
		b.WriteString(f.Func)
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(f.InstrID))
		b.WriteByte(';')
	}
	return b.String()
}
