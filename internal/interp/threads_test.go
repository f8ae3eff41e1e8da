package interp_test

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/trace"
)

// TestThreadedRunStartsNoGoroutine: a threaded run keeps every
// simulated thread on the goroutine that called Run. At every PM event,
// including the ones spawned threads issue, the goroutine count is what
// it was before Run, over the concurrent corpus and each way a threaded
// run ends early: a fault in a spawned thread, a join deadlock, the
// step limit hit in a spawned thread, a simulated crash in a spawned
// thread, and main returning with a thread unjoined.
func TestThreadedRunStartsNoGoroutine(t *testing.T) {
	type target struct {
		name  string
		mod   *ir.Module
		opts  interp.Options
		crash bool   // the hook crashes the run at event 1
		want  string // the run's error, if it fails
	}
	var ts []target
	for _, p := range corpus.MTPrograms() {
		ts = append(ts, target{name: p.Name, mod: p.MustCompile()})
	}
	src := func(name, body string) *ir.Module {
		return lang.MustCompile(name+".pmc", "pm int cell;\n"+body)
	}
	ts = append(ts,
		target{name: "thread fault",
			mod:  src("fault", `int w(int d) { cell = 1; return 1 / d; } int main() { return join(spawn(w, 0)); }`),
			want: "division by zero"},
		target{name: "deadlock",
			mod:  src("deadlock", `int w() { cell = 1; return join(1); } int main() { return join(spawn(w)); }`),
			want: "deadlock: no runnable thread (thread 0 joins 1, thread 1 joins 1)"},
		target{name: "step limit in a thread",
			mod:  src("steps", `int w() { int i = 0; while (1) { cell = i; i = i + 1; } return 0; } int main() { return join(spawn(w)); }`),
			opts: interp.Options{StepLimit: 10_000},
			want: "step limit exceeded"},
		target{name: "crash in a thread",
			mod:   src("crash", `int w() { cell = 1; return 0; } int main() { return join(spawn(w)); }`),
			crash: true, want: interp.ErrSimulatedCrash.Error()},
		target{name: "unjoined thread",
			mod:  src("unjoined", `int w() { cell = 2; return 0; } int main() { spawn(w); cell = 1; return 0; }`),
			opts: interp.Options{Schedule: []int{0}},
			want: "main returned with thread 1 still running"},
	)
	for _, tc := range ts {
		before := runtime.NumGoroutine()
		events, extra := 0, ""
		opts := tc.opts
		opts.OnPMEvent = func(k int, _ interp.PMEventKind) error {
			events++
			if n := runtime.NumGoroutine(); n != before && extra == "" {
				extra = fmt.Sprintf("%d goroutines at PM event %d, %d before Run", n, k, before)
			}
			if tc.crash {
				return interp.ErrSimulatedCrash
			}
			return nil
		}
		m, err := interp.New(tc.mod, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, err = m.Run("main")
		if extra != "" {
			t.Errorf("%s: %s", tc.name, extra)
		}
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want %q", tc.name, err, tc.want)
		}
		if events == 0 || m.ThreadCount() < 2 {
			t.Errorf("%s: %d PM events over %d threads, want a threaded run with events", tc.name, events, m.ThreadCount())
		}
	}
}

// FuzzScheduleReplay replays a decision prefix on a generated threaded
// program: seed%200 picks progen.ThreadedConfig's program and each byte
// of choices is one decision's choice. The decoded and tree-walking
// machines must report the same run, and a choice out of range must
// fail the same way on both, never panic. The decoded run is made twice:
// on a fresh machine, and on one recycled (Machine.Reset) from a run of
// a different prefix, detected online, whose trace slice it reuses, so
// no state of one run may leak into the next.
func FuzzScheduleReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint16, choices []byte) {
		s := int64(seed % 200)
		mod := progen.Generate(s, progen.ThreadedConfig(s))
		sched := make([]int, len(choices))
		other := []int{1}
		for i, c := range choices {
			sched[i] = int(c)
			other = append(other, int(c)^1)
		}
		opts := interp.Options{Schedule: sched}
		where := fmt.Sprintf("progen-threaded-%d schedule %s", s, interp.ScheduleID(sched))
		want := oracleRunOf(t, mod, "main", interp.NewTreeWalk, opts, true)
		got := oracleRunOf(t, mod, "main", interp.New, opts, true)
		sameOracleRun(t, where, got, want)
		recycled := oracleRunOf(t, mod, "main", recycledAfter("main", other), opts, true)
		sameOracleRun(t, where+" (recycled after "+interp.ScheduleID(other)+")", recycled, want)
	})
}

// recycledAfter returns a machine constructor that first runs the
// module's function entry (the run's own entry, or another one) under
// the schedule prefix other, with an online detector, and then resets
// the machine for the run asked for, handing that run's trace the first
// run's event slice. The first run's outcome, an error included, does
// not matter.
func recycledAfter(entry string, other []int) func(*ir.Module, interp.Options) (*interp.Machine, error) {
	return func(mod *ir.Module, opts interp.Options) (*interp.Machine, error) {
		first := &trace.Trace{Program: mod.Name}
		m, err := interp.New(mod, interp.Options{Trace: first, Schedule: other,
			StepLimit: opts.StepLimit, Detector: pmcheck.NewDetector()})
		if err != nil {
			return nil, err
		}
		m.Run(entry)
		opts.Trace.Events = first.Events[:0]
		if err := m.Reset(opts); err != nil {
			return nil, err
		}
		return m, nil
	}
}

// TestResetMatchesNew: over the corpus, the concurrent corpus and
// generated programs, a machine reset after a run of its module reports
// exactly what a new machine reports: return value, error, step and
// per-opcode counts, simulated time, PM event log, decisions, trace text
// and stacks, crash images, and what memory reads over the globals, PM,
// heap and stacks. The first run takes another schedule where the program
// has one to take, and its pm_root, heap and PM allocations must not leak
// into the second. A last program's reset run reads heap, stack and a PM
// global that only the run before it wrote, and must read zeros.
func TestResetMatchesNew(t *testing.T) {
	for _, tc := range stackTargets() {
		want := oracleRunOf(t, tc.mod, tc.entry, interp.New, interp.Options{}, true)
		got := oracleRunOf(t, tc.mod, tc.entry, recycledAfter(tc.entry, []int{1}), interp.Options{}, true)
		sameOracleRun(t, tc.name+" (reset)", got, want)
	}
	mod := lang.MustCompile("unwritten.pmc", `
pm int cell[8];
int fill() {
	int *p = (int*) malloc(64 * sizeof(int));
	int x[16];
	for (int i = 0; i < 64; i++) { p[i] = i + 1; }
	for (int i = 0; i < 16; i++) { x[i] = i + 100; }
	for (int i = 0; i < 8; i++) { cell[i] = i + 7; }
	return x[3] + p[5];
}
int main() {
	int *p = (int*) malloc(64 * sizeof(int));
	int x[16];
	int s = 0;
	for (int i = 0; i < 64; i++) { s = s + p[i]; }
	for (int i = 0; i < 16; i++) { s = s + x[i]; }
	for (int i = 0; i < 8; i++) { s = s + cell[i]; }
	return s;
}
`)
	want := oracleRunOf(t, mod, "main", interp.New, interp.Options{}, true)
	if want.err != nil || want.ret != 0 {
		t.Fatalf("unwritten memory: a new machine returns %d, %v; want 0", want.ret, want.err)
	}
	got := oracleRunOf(t, mod, "main", recycledAfter("fill", nil), interp.Options{}, true)
	sameOracleRun(t, "unwritten memory (reset after fill)", got, want)
}
