package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hippocrates/internal/interp"
	"hippocrates/internal/lang"
	"hippocrates/internal/progen"
)

// TestGuardConvertsPanics: the pipeline guard turns an arbitrary panic
// into a typed *PanicError carrying the phase, and preserves the inner
// phase when a guarded frame re-panics through an outer guard.
func TestGuardConvertsPanics(t *testing.T) {
	inner := func() (err error) {
		defer guard("trace", &err)
		panic("operand kind 37")
	}
	err := inner()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v (%T), want *PanicError", err, err)
	}
	if pe.Phase != "trace" || len(pe.Stack) == 0 {
		t.Errorf("PanicError = phase %q, %d stack bytes", pe.Phase, len(pe.Stack))
	}
	if want := "hippocrates: internal panic in trace: operand kind 37"; err.Error() != want {
		t.Errorf("PanicError message = %q, want %q", err.Error(), want)
	}

	outer := func() (err error) {
		defer guard("repair", &err)
		panic(err2panic(inner()))
	}
	err = outer()
	if !errors.As(err, &pe) || pe.Phase != "trace" {
		t.Errorf("nested panic: phase = %v, want the inner phase", err)
	}
}

func err2panic(err error) *PanicError {
	var pe *PanicError
	if !errors.As(err, &pe) {
		panic(fmt.Sprintf("not a PanicError: %v", err))
	}
	return pe
}

// TestRunAndRepairErrorsNotPanics: a module whose entry is missing, a
// module whose workload faults, and a module that trips the step limit
// must all come back as errors from RunAndRepair — never as a process
// panic — so shadow repair and crash validation can survive any input.
func TestRunAndRepairErrorsNotPanics(t *testing.T) {
	// Missing entry.
	mod := lang.MustCompile("t.pmc", `int main() { return 0; }`)
	if _, err := RunAndRepair(mod, "nope", Options{}); err == nil {
		t.Error("missing entry: want error")
	}

	// Faulting workload (null deref).
	bad := lang.MustCompile("t.pmc", `
int main() {
	int *p = (int*) 0;
	return *p;
}
`)
	if _, err := RunAndRepair(bad, "main", Options{}); err == nil {
		t.Error("faulting workload: want error")
	}

	// Infinite loop under a step limit: typed *interp.LimitError.
	spin := lang.MustCompile("t.pmc", `
int main() {
	int x = 0;
	while (x >= 0) { x = 1; }
	return x;
}
`)
	_, err := RunAndRepair(spin, "main", Options{StepLimit: 10_000})
	var le *interp.LimitError
	if !errors.As(err, &le) {
		t.Errorf("step limit: err = %v (%T), want *interp.LimitError", err, err)
	}

	// Same loop under a wall-clock deadline.
	spin2 := lang.MustCompile("t.pmc", `
int main() {
	int x = 0;
	while (x >= 0) { x = 1; }
	return x;
}
`)
	_, err = RunAndRepair(spin2, "main", Options{Deadline: time.Now().Add(50 * time.Millisecond)})
	if !errors.As(err, &le) {
		t.Errorf("deadline: err = %v (%T), want *interp.LimitError", err, err)
	}
}

// TestProgenSweepNeverPanics is the unkillability sweep: RunAndRepair
// over a batch of generated programs, with step limits on, must always
// return (module, error) control flow — any panic fails the test run
// outright. Seeds cover the full generator feature mix.
func TestProgenSweepNeverPanics(t *testing.T) {
	const seeds = 250
	for seed := int64(0); seed < seeds; seed++ {
		mod := progen.Generate(seed, progen.DefaultConfig())
		res, err := RunAndRepair(mod, "main", Options{StepLimit: 5_000_000})
		if err != nil {
			// Errors are acceptable (that is the contract); panics are not,
			// and the test harness would catch those. But a generated
			// program is well-formed by construction, so surface the first
			// few for inspection.
			t.Errorf("seed %d: %v", seed, err)
			if seed > 3 {
				t.FailNow()
			}
			continue
		}
		if res == nil {
			t.Fatalf("seed %d: nil result without error", seed)
		}
	}
}
