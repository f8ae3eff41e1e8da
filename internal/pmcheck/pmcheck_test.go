package pmcheck

import (
	"strings"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

const pm = pmem.PMBase

func ev(k trace.Kind, fn string, id int) *trace.Event {
	return &trace.Event{Kind: k, Stack: []trace.Frame{{Func: fn, InstrID: id}}}
}

func store(addr uint64, fn string, id int) *trace.Event {
	e := ev(trace.KindStore, fn, id)
	e.Addr, e.Size = addr, 8
	return e
}

func flush(addr uint64, fn string, id int) *trace.Event {
	e := ev(trace.KindFlush, fn, id)
	e.Addr = addr
	e.FlushK = ir.CLWB
	return e
}

func mkTrace(events ...*trace.Event) *trace.Trace {
	t := &trace.Trace{Program: "test"}
	for _, e := range events {
		t.Append(e)
	}
	return t
}

func TestCleanTrace(t *testing.T) {
	res := Check(mkTrace(
		store(pm, "f", 1),
		flush(pm, "f", 2),
		ev(trace.KindFence, "f", 3),
		ev(trace.KindCheckpoint, "f", 4),
	))
	if !res.Clean() {
		t.Fatalf("reports = %+v, want clean", res.Reports)
	}
	if res.Stores != 1 || res.Flushes != 1 || res.Fences != 1 || res.Checkpoints != 1 {
		t.Errorf("stats = %+v", res)
	}
	if !strings.Contains(res.Summary(), "no durability bugs") {
		t.Error("summary should report clean")
	}
}

func TestMissingFlushFence(t *testing.T) {
	res := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "f", 2),
	))
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	r := res.Reports[0]
	if r.Class() != pmem.MissingFlushFence {
		t.Errorf("class = %v", r.Class())
	}
	if r.Occurrences != 1 || len(r.Checkpoints) != 1 {
		t.Errorf("report = %+v", r)
	}
}

func TestMissingFence(t *testing.T) {
	res := Check(mkTrace(
		store(pm, "f", 1),
		flush(pm, "f", 2),
		ev(trace.KindCheckpoint, "f", 3),
	))
	if len(res.Reports) != 1 || res.Reports[0].Class() != pmem.MissingFence {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestMissingFlushOnly(t *testing.T) {
	// A fence after the store exists, the flush does not.
	res := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindFence, "f", 2),
		ev(trace.KindCheckpoint, "f", 3),
	))
	if len(res.Reports) != 1 || res.Reports[0].Class() != pmem.MissingFlush {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestNTStoreNeedsFence(t *testing.T) {
	e := ev(trace.KindNTStore, "f", 1)
	e.Addr, e.Size = pm, 8
	res := Check(mkTrace(e, ev(trace.KindCheckpoint, "f", 2)))
	if len(res.Reports) != 1 || res.Reports[0].Class() != pmem.MissingFence {
		t.Fatalf("reports = %+v", res.Reports)
	}
}

func TestDedupAcrossDynamicInstances(t *testing.T) {
	// The same static site stores twice (different addresses); a single
	// report with two occurrences.
	res := Check(mkTrace(
		store(pm, "f", 1),
		store(pm+128, "f", 1),
		ev(trace.KindCheckpoint, "f", 9),
	))
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 (deduplicated)", len(res.Reports))
	}
	if res.Reports[0].Occurrences != 2 {
		t.Errorf("occurrences = %d, want 2", res.Reports[0].Occurrences)
	}
}

func TestClassUnionAcrossCheckpoints(t *testing.T) {
	// First checkpoint: dirty with no prior fence (flush&fence);
	// a later fence then a new dirty store at the same site: the merged
	// report still needs both mechanisms.
	res := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "g", 5),
		ev(trace.KindFence, "f", 2),
		store(pm+64, "f", 1),
		ev(trace.KindCheckpoint, "g", 6),
	))
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	r := res.Reports[0]
	if !r.NeedFlush || !r.NeedFence {
		t.Errorf("needs = flush:%v fence:%v, want both", r.NeedFlush, r.NeedFence)
	}
	if len(r.Checkpoints) != 2 {
		t.Errorf("checkpoints = %d, want 2 distinct sites", len(r.Checkpoints))
	}
}

func TestCheckpointDedup(t *testing.T) {
	// The same checkpoint site observed twice records once.
	res := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "g", 5),
		ev(trace.KindCheckpoint, "g", 5),
	))
	if len(res.Reports) != 1 || len(res.Reports[0].Checkpoints) != 1 {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if res.Reports[0].Occurrences != 2 {
		t.Errorf("occurrences = %d (one per dynamic checkpoint)", res.Reports[0].Occurrences)
	}
}

func TestRedundantDiagnostics(t *testing.T) {
	res := Check(mkTrace(
		flush(pm, "f", 1),           // nothing to flush
		ev(trace.KindFence, "f", 2), // nothing to drain
		store(pm, "f", 3),
		flush(pm, "f", 4),
		ev(trace.KindFence, "f", 5),
		ev(trace.KindCheckpoint, "f", 6),
	))
	if !res.Clean() {
		t.Fatalf("reports = %+v", res.Reports)
	}
	if len(res.RedundantFlushes) != 1 || len(res.RedundantFences) != 1 {
		t.Errorf("redundant = %d flushes, %d fences, want 1 each",
			len(res.RedundantFlushes), len(res.RedundantFences))
	}
	if !strings.Contains(res.Summary(), "redundant") {
		t.Error("summary should mention redundant operations")
	}
}

func TestReportOrderingAndString(t *testing.T) {
	res := Check(mkTrace(
		store(pm, "b", 1),
		store(pm+64, "a", 2),
		ev(trace.KindCheckpoint, "f", 3),
	))
	if len(res.Reports) != 2 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.Reports[0].Store.Site().Func != "b" {
		t.Error("reports not in first-occurrence order")
	}
	s := res.Reports[0].String()
	if !strings.Contains(s, "missing-flush&fence") || !strings.Contains(s, "b@1") {
		t.Errorf("report string = %q", s)
	}
}

func TestMultiFrameStackInReport(t *testing.T) {
	e := &trace.Event{Kind: trace.KindStore, Addr: pm, Size: 8, Stack: []trace.Frame{
		{Func: "update", InstrID: 2},
		{Func: "modify", InstrID: 1},
		{Func: "main", InstrID: 7},
	}}
	res := Check(mkTrace(e, ev(trace.KindCheckpoint, "main", 9)))
	if len(res.Reports) != 1 {
		t.Fatal("want one report")
	}
	if res.Reports[0].Key() != (SiteKey{Func: "update", InstrID: 2}) {
		t.Errorf("key = %+v", res.Reports[0].Key())
	}
	if !strings.Contains(res.Reports[0].String(), "called from modify@1") {
		t.Errorf("report lacks stack: %s", res.Reports[0])
	}
}

func TestLateFixStillReportedOnce(t *testing.T) {
	// Store is caught at a checkpoint, then properly persisted, then the
	// program ends: only the first checkpoint produces the violation.
	res := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "g", 5),
		flush(pm, "f", 2),
		ev(trace.KindFence, "f", 3),
		ev(trace.KindCheckpoint, "h", 6),
	))
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d", len(res.Reports))
	}
	if res.Reports[0].Occurrences != 1 {
		t.Errorf("occurrences = %d, want 1", res.Reports[0].Occurrences)
	}
}

func TestDedupeByClassMergesDuplicates(t *testing.T) {
	// Two detector passes over the same execution (e.g. a re-run of a hot
	// loop) produce equal reports for the one buggy site. DedupeByClass
	// must fold them into a single report the fixer sees once.
	tr := mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "f", 9),
	)
	combined := append(Check(tr).Reports, Check(tr).Reports...)
	out := DedupeByClass(combined)
	if len(out) != 1 {
		t.Fatalf("reports after dedupe = %d, want 1", len(out))
	}
	if out[0].Occurrences != 2 {
		t.Errorf("occurrences = %d, want 2 (summed)", out[0].Occurrences)
	}
	if len(out[0].Checkpoints) != 1 {
		t.Errorf("checkpoints = %d, want 1 (unioned by site)", len(out[0].Checkpoints))
	}
}

func TestDedupeByClassKeepsDistinctClasses(t *testing.T) {
	// The same site missing flush+fence at one durability point and only a
	// fence at another (after a fence-carrying re-run) needs different
	// mechanisms: the reports must stay separate.
	full := Check(mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "f", 9),
	)).Reports
	fenceOnly := Check(mkTrace(
		store(pm, "f", 1),
		flush(pm, "f", 2),
		ev(trace.KindCheckpoint, "f", 9),
	)).Reports
	out := DedupeByClass(append(full, fenceOnly...))
	if len(out) != 2 {
		t.Fatalf("reports after dedupe = %d, want 2 (distinct bug classes)", len(out))
	}
}

func TestDedupeByClassKeepsDistinctStacks(t *testing.T) {
	// One buggy site reached through two different call chains: each chain
	// may need its own (differently hoisted) fix, so the reports must not
	// be collapsed even though site and class agree. Two detector passes
	// merge per stack.
	viaA := store(pm, "f", 1)
	viaA.Stack = append(viaA.Stack, trace.Frame{Func: "a", InstrID: 4})
	viaB := store(pm+64, "f", 1)
	viaB.Stack = append(viaB.Stack, trace.Frame{Func: "b", InstrID: 5})
	tr := mkTrace(
		viaA,
		viaB,
		ev(trace.KindCheckpoint, "main", 9),
	)
	reports := Check(tr).Reports
	if len(reports) != 2 {
		t.Fatalf("reports = %d, want 2 (one per chain)", len(reports))
	}
	out := DedupeByClass(append(reports, Check(tr).Reports...))
	if len(out) != 2 {
		t.Fatalf("reports after dedupe = %d, want 2 (chains preserved)", len(out))
	}
	for i, r := range out {
		if !sameStack(r.Store.Stack, reports[i].Store.Stack) || r.Occurrences != 2 {
			t.Errorf("report %d: stack %v, %d occurrence(s); want stack %v, 2", i, r.Store.Stack, r.Occurrences, reports[i].Store.Stack)
		}
	}
}

func TestDedupeByClassKeepsEarliestStore(t *testing.T) {
	tr := mkTrace(
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "f", 9),
		store(pm, "f", 1),
		ev(trace.KindCheckpoint, "f", 9),
	)
	// Force one copy's representative to the later store instance: the
	// merge must still settle on the earliest store event.
	late := Check(tr).Reports
	late[0].Store = tr.Events[2]
	out := DedupeByClass(append(late, Check(tr).Reports...))
	if len(out) != 1 {
		t.Fatalf("reports after dedupe = %d, want 1", len(out))
	}
	if out[0].Store.Seq != 0 {
		t.Errorf("representative store seq = %d, want 0 (earliest)", out[0].Store.Seq)
	}
}

// TestNeedsCoversAndString pins the agreement harness's unit: a need set
// renders as the mechanisms it names. (Coverage between need sets is the
// harness's own check, pinned beside it in internal/static.)
func TestNeedsCoversAndString(t *testing.T) {
	none, flush, fence, both := Needs{}, Needs{Flush: true}, Needs{Fence: true}, Needs{Flush: true, Fence: true}
	for n, want := range map[Needs]string{none: "none", flush: "flush", fence: "fence", both: "flush+fence"} {
		if got := n.String(); got != want {
			t.Errorf("%+v renders as %q, want %q", n, got, want)
		}
	}
}
