package pmcheck

import (
	"slices"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// VerdictTable holds the verdict records of one exploration's runs, each
// once by its content: the events verdicts name, the reports, and whole
// results. The interleavings of one exploration mostly reach verdicts an
// earlier one already reached, so a run whose verdict is taken through
// the table (Detector.SharedResult) points at the records the table
// holds and adds only those it sees first. Nothing changes a record once
// the table holds it, so each run's verdict still reads as its own.
//
// An event is keyed by its fields and its call stack by the identity of
// the stack's backing array: the runs of one exploration intern their
// stacks in one interp.StackTable, which gives equal stacks one array.
// A table serves the runs of one exploration, one at a time.
type VerdictTable struct {
	// Each map holds the records whose content hashes to its key.
	events  map[uint64][]*trace.Event
	reports map[uint64][]*Report
	results map[uint64][]*Result
}

// NewVerdictTable returns an empty table.
func NewVerdictTable() *VerdictTable {
	return &VerdictTable{
		events:  make(map[uint64][]*trace.Event),
		reports: make(map[uint64][]*Report),
		results: make(map[uint64][]*Result),
	}
}

// eventKey is an event's content, its stack by identity: two events are
// one record when their keys are equal.
type eventKey struct {
	seq, size, tid int
	kind           trace.Kind
	flushK         ir.FlushKind
	fenceK         ir.FenceKind
	addr, val      uint64
	sym            string
	stack          *trace.Frame
	depth          int
}

func keyOf(e *trace.Event) eventKey {
	k := eventKey{seq: e.Seq, size: e.Size, tid: e.Tid, kind: e.Kind, flushK: e.FlushK, fenceK: e.FenceK,
		addr: e.Addr, val: e.Val, sym: e.Sym, depth: len(e.Stack)}
	if len(e.Stack) > 0 {
		k.stack = &e.Stack[0]
	}
	return k
}

// SharedResult is Result for a run of the exploration t serves: the
// verdict is made of t's records, and what t did not hold yet enters it,
// each event the verdict names as a copy, so the buffers of the run's
// trace may be reused. The run's report records, and its result, that t
// already held are recycled by the detector's later runs.
func (d *Detector) SharedResult(t *VerdictTable) *Result {
	res := d.Result()
	c := t.enter(res, &d.in, true)
	if c != res {
		d.spare = res
	}
	return c
}

// Adopt enters res, the verdict of a run whose trace outlives t, into t
// as it is: its events stay the trace's.
func (t *VerdictTable) Adopt(res *Result) {
	t.enter(res, nil, false)
}

// enter returns the table's record of res, entering what it lacks. When
// copyEvents is set the events entered are copies; in, when non-nil, takes the
// report records of res that the table already held.
func (t *VerdictTable) enter(res *Result, in *interner, copyEvents bool) *Result {
	h := mix(offset, uint64(len(res.Reports)))
	for i, r := range res.Reports {
		c := t.report(r, copyEvents)
		if c != r && in != nil {
			in.free = append(in.free, r)
		}
		res.Reports[i] = c
		h = mix(mix(h, uint64(c.Store.Seq)), uint64(c.Occurrences))
	}
	for _, evs := range [2][]*trace.Event{res.RedundantFlushes, res.RedundantFences} {
		h = mix(h, uint64(len(evs)))
		for i, e := range evs {
			evs[i] = t.event(e, copyEvents)
			h = mix(h, uint64(e.Seq))
		}
	}
	for _, n := range [...]int{res.Stores, res.Flushes, res.Fences, res.Checkpoints,
		res.Threads, res.CrossThreadPublishes, res.LinesTouched} {
		h = mix(h, uint64(n))
	}
	for _, c := range t.results[h] {
		if sameResult(c, res) {
			return c
		}
	}
	t.results[h] = append(t.results[h], res)
	return res
}

// report returns the table's record of r, entering r, its events made
// the table's, at its first sighting.
func (t *VerdictTable) report(r *Report, copyEvents bool) *Report {
	h := mix(offset, uint64(r.Occurrences))
	h = mix(h, uint64(r.Tid)<<32|uint64(r.PubTid))
	h = mix(h, flag(r.NeedFlush)|flag(r.NeedFence)<<1|flag(r.CrossThread)<<2)
	r.Store = t.event(r.Store, copyEvents)
	h = mix(h, uint64(r.Store.Seq))
	for i, c := range r.Checkpoints {
		r.Checkpoints[i] = t.event(c, copyEvents)
		h = mix(h, uint64(c.Seq))
	}
	for _, f := range r.FlushSites {
		h = mix(h, uint64(f.InstrID))
	}
	for _, c := range t.reports[h] {
		if sameReport(c, r) {
			return c
		}
	}
	t.reports[h] = append(t.reports[h], r)
	return r
}

// event returns the table's record of e's content, entering e, or a copy
// of it, at its first sighting.
func (t *VerdictTable) event(e *trace.Event, copyEvents bool) *trace.Event {
	k := keyOf(e)
	h := mix(mix(mix(offset, uint64(e.Seq)), e.Addr), uint64(e.Kind)<<32|uint64(e.Tid))
	for _, c := range t.events[h] {
		if keyOf(c) == k {
			return c
		}
	}
	if copyEvents {
		c := *e
		e = &c
	}
	t.events[h] = append(t.events[h], e)
	return e
}

// sameReport reports whether two reports whose events are the table's
// records are equal.
func sameReport(a, b *Report) bool {
	return a.Store == b.Store && a.NeedFlush == b.NeedFlush && a.NeedFence == b.NeedFence &&
		a.Occurrences == b.Occurrences && a.CrossThread == b.CrossThread &&
		a.Tid == b.Tid && a.PubTid == b.PubTid &&
		slices.Equal(a.Checkpoints, b.Checkpoints) && slices.Equal(a.FlushSites, b.FlushSites)
}

// sameResult reports whether two results whose reports and events are
// the table's records are equal.
func sameResult(a, b *Result) bool {
	return a.Stores == b.Stores && a.Flushes == b.Flushes && a.Fences == b.Fences &&
		a.Checkpoints == b.Checkpoints && a.Threads == b.Threads &&
		a.CrossThreadPublishes == b.CrossThreadPublishes && a.LinesTouched == b.LinesTouched &&
		slices.Equal(a.Reports, b.Reports) &&
		slices.Equal(a.RedundantFlushes, b.RedundantFlushes) &&
		slices.Equal(a.RedundantFences, b.RedundantFences)
}

// offset and mix are FNV-1a over 64-bit words.
const offset = 14695981039346656037

func mix(h, x uint64) uint64 { return (h ^ x) * 1099511628211 }

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
