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
	"hippocrates/internal/progen"
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
// fail the same way on both, never panic.
func FuzzScheduleReplay(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint16, choices []byte) {
		s := int64(seed % 200)
		mod := progen.Generate(s, progen.ThreadedConfig(s))
		sched := make([]int, len(choices))
		for i, c := range choices {
			sched[i] = int(c)
		}
		opts := interp.Options{Schedule: sched}
		want := oracleRunOf(t, mod, "main", interp.NewTreeWalk, opts, true)
		got := oracleRunOf(t, mod, "main", interp.New, opts, true)
		sameOracleRun(t, fmt.Sprintf("progen-threaded-%d schedule %s", s, interp.ScheduleID(sched)), got, want)
	})
}
