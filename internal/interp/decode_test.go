package interp_test

import (
	"fmt"
	"reflect"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

// oracleRun is everything a run reports that decoding must not change.
type oracleRun struct {
	ret   uint64
	err   error
	steps int64
	ops   [ir.NumOps]int64
	simNs float64
	// ckpts, violations and threads are the durability points passed,
	// the pending stores seen at them, and the threads created.
	ckpts, violations, threads int
	// counters is what the run publishes through RecordObs, the
	// per-thread PM event counters among them.
	counters  map[string]int64
	log       []interp.PMEventKind
	decisions []interp.Decision
	tr        *trace.Trace
	// crashNone and crashAll are the crash images keeping no pending
	// store and every pending store; mem is what the run's memory reads
	// over the globals, PM, heap and stacks at its end.
	crashNone, crashAll *pmem.Memory
	mem                 []byte
}

// memStackBytes is how much of each thread's stack segment a run's
// memory comparison reads.
const memStackBytes = 16 << 10

func oracleRunOf(t *testing.T, mod *ir.Module, entry string, newMachine func(*ir.Module, interp.Options) (*interp.Machine, error), opts interp.Options, images bool) oracleRun {
	t.Helper()
	tr := &trace.Trace{Program: mod.Name}
	opts.Trace = tr
	if opts.StepLimit == 0 {
		opts.StepLimit = 50_000_000
	}
	m, err := newMachine(mod, opts)
	if err != nil {
		t.Fatalf("%s: %v", mod.Name, err)
	}
	out := oracleRun{tr: tr}
	out.ret, out.err = m.Run(entry)
	out.steps, out.ops, out.simNs = m.Steps(), m.OpCounts(), m.SimTime()
	out.ckpts, out.violations, out.threads = m.Checkpoints(), m.NumViolations(), m.ThreadCount()
	rec := obs.New()
	m.RecordObs(rec.StartSpan("run"))
	out.counters = rec.Counters()
	out.log = append(out.log, m.PMEventLog()...)
	out.decisions = m.Decisions()
	if images {
		out.crashNone = m.CrashImage(nil)
		out.crashAll = m.CrashImage(func(*pmem.TrackedStore) bool { return true })
		out.mem = m.MemoryWindows(memStackBytes)
	}
	return out
}

// sameOracleRun fails the test unless the decoded run got reports
// exactly what the tree-walking run want reports.
func sameOracleRun(t *testing.T, where string, got, want oracleRun) {
	t.Helper()
	if got.ret != want.ret || got.steps != want.steps || got.simNs != want.simNs {
		t.Fatalf("%s: ret/steps/sim %d/%d/%v, tree-walk %d/%d/%v", where, got.ret, got.steps, got.simNs, want.ret, want.steps, want.simNs)
	}
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error %v, tree-walk %v", where, got.err, want.err)
	}
	if got.err != nil && (reflect.TypeOf(got.err) != reflect.TypeOf(want.err) ||
		got.err.Error() != want.err.Error() || !reflect.DeepEqual(got.err, want.err)) {
		t.Fatalf("%s: error %T %q, tree-walk %T %q", where, got.err, got.err, want.err, want.err)
	}
	if got.ops != want.ops {
		t.Fatalf("%s: per-opcode counts %v, tree-walk %v", where, got.ops, want.ops)
	}
	if got.ckpts != want.ckpts || got.violations != want.violations || got.threads != want.threads {
		t.Fatalf("%s: checkpoints/violations/threads %d/%d/%d, tree-walk %d/%d/%d", where,
			got.ckpts, got.violations, got.threads, want.ckpts, want.violations, want.threads)
	}
	if !reflect.DeepEqual(got.counters, want.counters) {
		t.Fatalf("%s: published counters %v, tree-walk %v", where, got.counters, want.counters)
	}
	if !reflect.DeepEqual(got.log, want.log) || !reflect.DeepEqual(got.decisions, want.decisions) {
		t.Fatalf("%s: PM event log or scheduling decisions differ", where)
	}
	sameRun(t, where, tracedRun{tr: got.tr}, tracedRun{tr: want.tr})
	if want.crashNone != nil {
		if n := pmem.DiffPM(got.crashNone, want.crashNone); n != 0 {
			t.Fatalf("%s: crash image (nothing pending kept) differs in %d bytes", where, n)
		}
		if n := pmem.DiffPM(got.crashAll, want.crashAll); n != 0 {
			t.Fatalf("%s: crash image (everything pending kept) differs in %d bytes", where, n)
		}
		if len(got.mem) != len(want.mem) {
			t.Fatalf("%s: memory windows span %d bytes, want %d", where, len(got.mem), len(want.mem))
		}
		for i := range got.mem {
			if got.mem[i] != want.mem[i] {
				t.Fatalf("%s: memory windows differ first at byte %d: %#x, want %#x", where, i, got.mem[i], want.mem[i])
			}
		}
	}
}

// TestDecodedMatchesTreeWalk: over the corpus, the concurrent corpus and
// generated programs, a decoded run reports exactly what the
// tree-walking reference reports: return value, error (type, message,
// stack), step and per-opcode counts, simulated time, PM event log,
// scheduling decisions, trace text and stacks, crash images, and what
// memory reads over the globals, PM, heap and stacks at the end. A run
// cut at half its steps stops with the same *LimitError.
func TestDecodedMatchesTreeWalk(t *testing.T) {
	for _, tc := range stackTargets() {
		want := oracleRunOf(t, tc.mod, tc.entry, interp.NewTreeWalk, interp.Options{}, true)
		got := oracleRunOf(t, tc.mod, tc.entry, interp.New, interp.Options{}, true)
		sameOracleRun(t, tc.name, got, want)
		if want.steps > 2 {
			cut := interp.Options{StepLimit: want.steps / 2}
			want := oracleRunOf(t, tc.mod, tc.entry, interp.NewTreeWalk, cut, false)
			got := oracleRunOf(t, tc.mod, tc.entry, interp.New, cut, false)
			if _, ok := want.err.(*interp.LimitError); !ok {
				t.Fatalf("%s: run cut at %d steps ended with %v", tc.name, cut.StepLimit, want.err)
			}
			sameOracleRun(t, tc.name+" (step limit)", got, want)
		}
	}
}

// TestDecodedMatchesTreeWalkExplored: every schedule the explorer visits
// (on the threaded generated programs and the concurrent corpus, and the
// one schedule of every sequential target) replays identically on
// decoded ops and on the tree-walker, and to the explorer's verdict: its
// return value, and the detector result (report events and stacks,
// redundant flushes and fences) of the replayed trace.
func TestDecodedMatchesTreeWalkExplored(t *testing.T) {
	ts := stackTargets()
	runs := 0
	for _, tc := range ts {
		res, err := schedule.Explore(tc.mod, tc.entry, nil, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, r := range res.Runs {
			where := fmt.Sprintf("%s schedule %s", tc.name, r.ID)
			opts := interp.Options{Schedule: r.Choices}
			want := oracleRunOf(t, tc.mod, tc.entry, interp.NewTreeWalk, opts, false)
			got := oracleRunOf(t, tc.mod, tc.entry, interp.New, opts, false)
			sameOracleRun(t, where, got, want)
			if got.ret != r.Ret || (got.err == nil) != (r.Err == nil) {
				t.Fatalf("%s: replay differs from the explored run", where)
			}
			if r.Check != nil && !reflect.DeepEqual(r.Check, pmcheck.Check(got.tr)) {
				t.Fatalf("%s: the explored verdict differs from the replay's", where)
			}
			runs++
		}
	}
	t.Logf("%d explored schedules over %d programs", runs, len(ts))
}
