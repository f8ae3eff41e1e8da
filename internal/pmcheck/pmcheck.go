// Package pmcheck is the durability-bug detector: the repository's
// equivalent of Intel's pmemcheck. It replays a PM operation trace through
// the pmem durability state machine and reports, per static store site,
// whether the store can reach a durability point (a pm_checkpoint or the
// end of the program) without being flushed and fenced. Reports carry
// everything the fixer needs: the offending store's call stack, the bug
// class, and the durability points that observed the violation.
package pmcheck

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"strings"

	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// Report is one durability bug: one call stack reaching a store site,
// aggregated over all dynamic occurrences of that stack.
type Report struct {
	// Store is a representative store event (the first dynamic instance
	// that violated). Its Stack (innermost first) is the report's one
	// call chain, which the hoisting heuristic walks.
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

// Check replays a recorded trace through a Detector and aggregates
// durability violations by store site. Reports are ordered by the first
// violating store's sequence.
//
// The replay orders events by their position in the trace (which is
// sequence order for every recorded trace): the detector is fed event
// indices as sequence numbers, so a violation's store and flush map back
// to their events by slice indexing. Store payloads are rebuilt from the
// events (see Detector.Store), so a replay reaches the verdict the
// recording run's online detector reached.
func Check(t *trace.Trace) *Result {
	d := NewDetector()
	d.replay(t)
	return d.Result()
}

// replay resets d onto t and feeds it t's events.
func (d *Detector) replay(t *trace.Trace) {
	d.Reset(t)
	d.in.size(len(t.Events))
	for i, e := range t.Events {
		switch e.Kind {
		case trace.KindStore, trace.KindNTStore:
			d.Store(i, nil)
		case trace.KindFlush:
			d.Flush(i)
		case trace.KindFence:
			d.Fence(i)
		case trace.KindCheckpoint:
			d.Checkpoint(i)
		}
	}
}

// Detector is the durability-bug detector fed one PM event at a time, as
// pmemcheck runs alongside the program: it owns the durability tracker,
// reports at each durability point, and aggregates the violations by
// store site. An interpreter run given a Detector (interp.Options) feeds
// it as it executes and uses its tracker as the machine's own; Check
// feeds it a recorded trace. Both number events by their index in the
// trace the detector was reset onto.
//
// A Detector serves one run at a time: Reset binds it to the run's
// trace, the event methods feed it, and Result ends the run. Reset keeps
// the tracker's and the interner's buffers, so sequential runs (the
// interleavings of one exploration) pay for their set-up once.
type Detector struct {
	track *pmem.Tracker
	tr    *trace.Trace
	res   *Result
	// spare is a result no verdict names (that of a run whose whole
	// verdict a VerdictTable already held), which the next run records
	// into.
	spare *Result
	// lines is the set of cache lines the run's stores wrote.
	lines  map[uint64]struct{}
	in     interner
	maxTid int
	// buf rebuilds a replayed store's payload; the tracker copies it.
	buf [8]byte
}

// NewDetector returns a detector ready for Reset.
func NewDetector() *Detector {
	return &Detector{
		track: pmem.NewTracker(),
		lines: make(map[uint64]struct{}),
		in: interner{
			siteOf:  make(map[int]int32),
			byStack: make(map[uint64]int32),
			siteID:  make(map[SiteKey]int32),
		},
	}
}

// Reset readies d for a run whose events are recorded in tr, dropping the
// previous run's state but keeping its buffers. Results returned before
// stay valid: no record they name is reused.
func (d *Detector) Reset(tr *trace.Trace) {
	d.track.Reset()
	clear(d.lines)
	d.in.reset()
	d.tr = tr
	d.maxTid = 0
	if r := d.spare; r != nil {
		d.spare = nil
		d.in.reports = r.Reports[:0]
		*r = Result{RedundantFlushes: r.RedundantFlushes[:0], RedundantFences: r.RedundantFences[:0]}
		d.res = r
		return
	}
	d.res = &Result{}
}

// Tracker returns the durability tracker the detector drives. A machine
// running with the detector uses it for its simulated costs and crash
// states; it must not be fed events except through the detector.
func (d *Detector) Tracker() *pmem.Tracker { return d.track }

func (d *Detector) seeTid(tid int) {
	if tid > d.maxTid {
		d.maxTid = tid
	}
}

// Store feeds event seq, a store or NT store, with its payload data. A nil
// data rebuilds the payload from the event, as a replay must: zeros,
// except an 8-byte store whose value the trace recorded (Event.Val).
// Either way publish detection follows only a recorded value, so an online
// run and a replay of its trace agree.
func (d *Detector) Store(seq int, data []byte) {
	e := d.tr.Events[seq]
	d.res.Stores++
	d.lines[pmem.LineOf(e.Addr)] = struct{}{}
	d.seeTid(e.Tid)
	if data == nil {
		data = d.buf[:e.Size]
		clear(data)
		if e.Size == 8 {
			binary.LittleEndian.PutUint64(data, e.Val)
		}
	}
	d.track.Store(seq, e.Tid, e.Addr, data, e.Kind == trace.KindNTStore, e.Val != 0)
}

// Flush feeds event seq, a cache-line flush, and returns the number of
// stores it moved (0 marks it redundant).
func (d *Detector) Flush(seq int) int {
	e := d.tr.Events[seq]
	d.res.Flushes++
	d.seeTid(e.Tid)
	moved := d.track.Flush(seq, e.Tid, e.FlushK.Ordered(), e.Addr)
	if moved == 0 {
		d.res.RedundantFlushes = append(d.res.RedundantFlushes, e)
	}
	return moved
}

// Fence feeds event seq, a fence, and returns the number of cache lines
// it drained.
func (d *Detector) Fence(seq int) int {
	e := d.tr.Events[seq]
	d.res.Fences++
	d.seeTid(e.Tid)
	before := d.track.RedundantFences
	lines := d.track.Fence(seq, e.Tid)
	if d.track.RedundantFences > before {
		d.res.RedundantFences = append(d.res.RedundantFences, e)
	}
	return lines
}

// Checkpoint feeds event seq, a durability point: every store still
// pending is a violation, folded into its site's report.
func (d *Detector) Checkpoint(seq int) {
	events := d.tr.Events
	d.res.Checkpoints++
	in := &d.in
	ck := in.site(events, seq)
	for v := range d.track.Violations(seq) {
		id := in.report(events, v.Store.Seq)
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
			fs := in.site(events, v.Store.FlushSeq)
			if in.flushSeen.add(fs, id) {
				rep.FlushSites = append(rep.FlushSites, events[v.Store.FlushSeq].Site())
			}
		}
		if in.ckptSeen.add(ck, id) {
			rep.Checkpoints = append(rep.Checkpoints, events[seq])
		}
	}
}

// Result ends the run and returns the detector's verdict on it. Call it
// once per Reset.
func (d *Detector) Result() *Result {
	res, in := d.res, &d.in
	// Cross-thread unordered publishes: the tracker flagged stores that
	// were still pending when another thread durably published a pointer
	// to their cache line. Each folds into the referent store's site
	// report — the fix (flush + fence in the issuing thread) is the same
	// mechanism as any unordered store, but the provenance explains why
	// program order alone never exposes it.
	res.CrossThreadPublishes = len(d.track.Publishes)
	for _, p := range d.track.Publishes {
		rep := in.reports[in.report(d.tr.Events, p.Referent.Seq)]
		rep.Occurrences++
		rep.NeedFlush = true
		rep.NeedFence = true
		rep.CrossThread = true
		rep.Tid = p.Referent.Tid
		rep.PubTid = p.PubTid
	}
	res.Reports = in.reports
	in.reports = nil
	slices.SortFunc(res.Reports, func(a, b *Report) int { return cmp.Compare(a.Store.Seq, b.Store.Seq) })
	// A recycled record or result lists nothing as a fresh one does: nil.
	for _, r := range res.Reports {
		r.Checkpoints = nilIfEmpty(r.Checkpoints)
		r.FlushSites = nilIfEmpty(r.FlushSites)
	}
	res.Reports = nilIfEmpty(res.Reports)
	res.RedundantFlushes = nilIfEmpty(res.RedundantFlushes)
	res.RedundantFences = nilIfEmpty(res.RedundantFences)
	res.LinesTouched = len(d.lines)
	res.Threads = d.maxTid + 1
	d.res = nil
	return res
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// interner gives the detector's per-violation work dense integer ids.
// Reports deduplicate by (store site, call stack): the same static store
// reached through two different call chains is two bugs — each chain
// needs its own (possibly hoisted) fix, and the persistent subprogram
// transformation naturally shares clones between them. The site is the
// stack's innermost frame, so the stack alone is the key. A store event's
// report id is interned at its first violation, by a hash of its stack;
// every later violation of the same pending store is a slice index.
type interner struct {
	// reportOf memoizes, per event index, a store event's report id (-1
	// until its first violation). An online run grows it on demand; a
	// replay sizes it to its trace up front.
	reportOf []int32
	// siteOf memoizes the site ids of the few events asked for theirs:
	// durability points and the flushes of missing-fence stores.
	siteOf  map[int]int32
	reports []*Report
	// byStack maps a stackHash to the last report whose stack hashes to
	// it, and sameHash each report to the one before it with its hash
	// (-1 for none).
	byStack  map[uint64]int32
	sameHash []int32
	siteID   map[SiteKey]int32
	// ckptSeen / flushSeen record which checkpoint and flush sites each
	// report already lists.
	ckptSeen, flushSeen pairSet
	// free holds report records no verdict names any more (a run's
	// records that a VerdictTable already held), for later runs.
	free []*Report
}

// reset forgets the last run's ids, keeping every buffer but the reports
// (the last Result owns them).
func (in *interner) reset() {
	fillUnset(in.reportOf)
	clear(in.siteOf)
	in.reports = nil
	clear(in.byStack)
	in.sameHash = in.sameHash[:0]
	clear(in.siteID)
	in.ckptSeen.reset()
	in.flushSeen.reset()
}

// size makes the per-event memo cover exactly n events.
func (in *interner) size(n int) {
	in.reportOf = resize(in.reportOf, n)
}

func fillUnset(ids []int32) {
	for i := range ids {
		ids[i] = -1
	}
}

// resize returns ids with length n, new entries unset.
func resize(ids []int32, n int) []int32 {
	if n <= len(ids) {
		return ids[:n]
	}
	old := len(ids)
	ids = slices.Grow(ids, n-old)[:n]
	fillUnset(ids[old:])
	return ids
}

// report returns the id of the report for store event i, creating the
// report at the first violation of its (site, stack).
func (in *interner) report(events []*trace.Event, i int) int32 {
	if i >= len(in.reportOf) {
		in.reportOf = resize(in.reportOf, max(i+1, 2*len(in.reportOf)))
	}
	if id := in.reportOf[i]; id >= 0 {
		return id
	}
	se := events[i]
	h := stackHash(se.Stack)
	last, ok := in.byStack[h]
	if !ok {
		last = -1
	}
	for id := last; id >= 0; id = in.sameHash[id] {
		if sameStack(in.reports[id].Store.Stack, se.Stack) {
			in.reportOf[i] = id
			return id
		}
	}
	id := int32(len(in.reports))
	in.byStack[h] = id
	in.sameHash = append(in.sameHash, last)
	in.reports = append(in.reports, in.newReport(se))
	in.reportOf[i] = id
	return id
}

// newReport returns an empty report on store event se, recycling a free
// record (and its lists' room) when there is one.
func (in *interner) newReport(se *trace.Event) *Report {
	n := len(in.free)
	if n == 0 {
		return &Report{Store: se}
	}
	r := in.free[n-1]
	in.free = in.free[:n-1]
	*r = Report{Store: se, Checkpoints: r.Checkpoints[:0], FlushSites: r.FlushSites[:0]}
	return r
}

// stackHash is FNV-1a over a stack's (Func, InstrID) frames, the part of
// a stack that identifies a report.
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

// sameStack reports whether two stacks agree frame by frame on (Func,
// InstrID).
func sameStack(a, b []trace.Frame) bool {
	return slices.EqualFunc(a, b, func(x, y trace.Frame) bool {
		return x.Func == y.Func && x.InstrID == y.InstrID
	})
}

// site returns the id of event i's static site.
func (in *interner) site(events []*trace.Event, i int) int32 {
	if id, ok := in.siteOf[i]; ok {
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

// reset empties the set, keeping its rows.
func (s pairSet) reset() {
	for _, row := range s {
		clear(row)
	}
}

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

// DedupeByClass merges the reports of one (call stack, bug class) into
// one, for a caller that combines the reports of several detector runs:
// the interleavings of one exploration reach the same buggy store again
// and again, and the fixer should see it once. The merged report keeps
// the earliest representative store, sums occurrences, and unions
// checkpoints and flush sites. Reports stay separate when their bug
// classes differ (they need different fixes) or when their call stacks
// differ: each chain may need its own, differently hoisted fix (§4.2.4
// clone reuse). The stack identity is the detector's own (stackHash,
// sameStack), so one detector run's reports are already merged.
func DedupeByClass(reports []*Report) []*Report {
	type key struct {
		stack        uint64
		flush, fence bool
	}
	byKey := make(map[key][]*Report)
	out := make([]*Report, 0, len(reports))
	for _, r := range reports {
		k := key{stack: stackHash(r.Store.Stack), flush: r.NeedFlush, fence: r.NeedFence}
		i := slices.IndexFunc(byKey[k], func(m *Report) bool { return sameStack(m.Store.Stack, r.Store.Stack) })
		if i < 0 {
			cp := *r
			cp.Checkpoints = slices.Clone(r.Checkpoints)
			cp.FlushSites = slices.Clone(r.FlushSites)
			byKey[k] = append(byKey[k], &cp)
			out = append(out, &cp)
			continue
		}
		m := byKey[k][i]
		if r.Store.Seq < m.Store.Seq {
			m.Store = r.Store
		}
		m.Occurrences += r.Occurrences
		if r.CrossThread && !m.CrossThread {
			m.CrossThread = true
			m.Tid, m.PubTid = r.Tid, r.PubTid
		}
		m.Checkpoints = unionBySite(m.Checkpoints, r.Checkpoints, (*trace.Event).Site)
		m.FlushSites = unionBySite(m.FlushSites, r.FlushSites, func(f trace.Frame) trace.Frame { return f })
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Store.Seq < out[j].Store.Seq })
	return out
}

// unionBySite appends to dst the elements of src whose sites dst lacks.
func unionBySite[T any](dst, src []T, site func(T) trace.Frame) []T {
	seen := make(map[SiteKey]bool, len(dst)+len(src))
	for _, x := range dst {
		f := site(x)
		seen[SiteKey{Func: f.Func, InstrID: f.InstrID}] = true
	}
	for _, x := range src {
		f := site(x)
		if k := (SiteKey{Func: f.Func, InstrID: f.InstrID}); !seen[k] {
			seen[k] = true
			dst = append(dst, x)
		}
	}
	return dst
}
