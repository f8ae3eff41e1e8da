package core

import (
	"fmt"
	"runtime"
)

// PanicError is a panic recovered at a pipeline boundary: the interpreter
// or the transform hit an internal invariant (unknown operand kind,
// un-insertable fix site, ...) on input it was never meant to see. The
// pipeline converts these into errors so no caller — the CLI, the
// shadow repair in pmcheck, the crash-validation engine — ever crashes
// the process over a bad program.
type PanicError struct {
	// Phase names the pipeline entry point that panicked.
	Phase string
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack at the panic site.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("hippocrates: internal panic in %s: %v", e.Phase, e.Value)
}

// Guard converts a panic into a *PanicError in the caller's named return
// slot. Use as: defer Guard("repair", &err).
func Guard(phase string, errp *error) {
	if r := recover(); r != nil {
		if pe, ok := r.(*PanicError); ok {
			// Already guarded deeper in the pipeline; keep the inner phase.
			*errp = pe
			return
		}
		buf := make([]byte, 32<<10)
		buf = buf[:runtime.Stack(buf, false)]
		*errp = &PanicError{Phase: phase, Value: r, Stack: buf}
	}
}
