package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
	"hippocrates/internal/trace"
)

type stackTarget struct {
	name  string
	mod   *ir.Module
	entry string
}

// stackTargets is the oracle set: the corpus, the concurrent corpus,
// generated programs 0–249 and generated threaded programs 0–199.
func stackTargets() []stackTarget {
	var ts []stackTarget
	for _, p := range corpus.All() {
		ts = append(ts, stackTarget{p.Name, p.MustCompile(), p.Entry})
	}
	for _, p := range corpus.MTPrograms() {
		ts = append(ts, stackTarget{p.Name, p.MustCompile(), p.Entry})
	}
	for s := int64(0); s < 250; s++ {
		ts = append(ts, stackTarget{fmt.Sprintf("progen-%d", s), progen.Generate(s, progen.DefaultConfig()), "main"})
	}
	for s := int64(0); s < 200; s++ {
		ts = append(ts, stackTarget{fmt.Sprintf("progen-threaded-%d", s), progen.Generate(s, progen.ThreadedConfig(s)), "main"})
	}
	return ts
}

// tracedRun is everything a traced run reports.
type tracedRun struct {
	tr     *trace.Trace
	ret    uint64
	err    string
	steps  int64
	simNs  float64
	events int
}

func runWith(t *testing.T, tc stackTarget, newMachine func(*ir.Module, interp.Options) (*interp.Machine, error), opts interp.Options) tracedRun {
	t.Helper()
	tr := &trace.Trace{Program: tc.mod.Name}
	opts.Trace = tr
	opts.StepLimit = 50_000_000
	m, err := newMachine(tc.mod, opts)
	if err != nil {
		t.Fatalf("%s: %v", tc.name, err)
	}
	out := tracedRun{tr: tr}
	out.ret, err = m.Run(tc.entry)
	if err != nil {
		out.err = err.Error()
	}
	out.steps, out.simNs, out.events = m.Steps(), m.SimTime(), len(m.PMEventLog())
	return out
}

// sameRun fails the test unless the two runs are identical: return
// value, error, step count, simulated time, trace text, and every
// event's call stack frame by frame.
func sameRun(t *testing.T, where string, got, want tracedRun) {
	t.Helper()
	if got.ret != want.ret || got.err != want.err || got.steps != want.steps ||
		got.simNs != want.simNs || got.events != want.events {
		t.Fatalf("%s: run differs: ret/err/steps/sim/events %d/%q/%d/%v/%d, oracle %d/%q/%d/%v/%d", where,
			got.ret, got.err, got.steps, got.simNs, got.events, want.ret, want.err, want.steps, want.simNs, want.events)
	}
	if len(got.tr.Events) != len(want.tr.Events) {
		t.Fatalf("%s: %d events, oracle %d", where, len(got.tr.Events), len(want.tr.Events))
	}
	for i, e := range got.tr.Events {
		if !reflect.DeepEqual(e.Stack, want.tr.Events[i].Stack) {
			t.Fatalf("%s: event %d stack %v, oracle %v", where, i, e.Stack, want.tr.Events[i].Stack)
		}
	}
	if g, w := got.tr.String(), want.tr.String(); g != w {
		t.Fatalf("%s: trace text differs", where)
	}
}

// TestInternedStacksMatchPrivateCopies: every traced event's interned
// stack equals the private copy Machine.stack builds at the same point,
// and interning changes nothing else a run reports, over the corpus, the
// concurrent corpus and generated programs.
func TestInternedStacksMatchPrivateCopies(t *testing.T) {
	for _, tc := range stackTargets() {
		got := runWith(t, tc, interp.New, interp.Options{})
		want := runWith(t, tc, interp.NewPrivateStacks, interp.Options{})
		sameRun(t, tc.name, got, want)
	}
}

// TestSharedStackTableMatchesOwn: runs that share one table, as the
// schedules of one exploration do, record exactly what runs with a table
// each record, including under the scheduler's alternative
// interleavings.
func TestSharedStackTableMatchesOwn(t *testing.T) {
	for _, tc := range stackTargets() {
		shared := interp.NewStackTable()
		for _, sched := range [][]int{nil, {1, 0, 1}} {
			where := fmt.Sprintf("%s schedule %v", tc.name, sched)
			got := runWith(t, tc, interp.New, interp.Options{Schedule: sched, Stacks: shared})
			want := runWith(t, tc, interp.NewPrivateStacks, interp.Options{Schedule: sched})
			sameRun(t, where, got, want)
		}
	}
}
