package interp

import (
	"hippocrates/internal/arena"
	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// StackTable interns the call stacks of traced runs, the way Valgrind's
// ExeContext table does for pmemcheck: every distinct stack is built once,
// and every event recorded at it shares the same immutable []trace.Frame.
//
// A stack is keyed by its outer stack (the callers, each at its active
// call instruction), the innermost function and that function's active
// instruction. The key holds *ir.Func and *ir.Instr pointers and the
// frames snapshot the instruction IDs and locations they carried when
// the stack was first seen, so a table is valid for one version of one
// module: share it only between runs of a module that does not change in
// between, one run at a time (schedule.Explore does, per call).
type StackTable struct {
	stacks map[stackKey][]trace.Frame
	frames arena.Chunks[trace.Frame]
}

// stackKey names one interned stack. outer is the first frame of the
// interned outer stack (nil for a thread's bottom frame): interned
// stacks are never empty and never move, so the address is their
// identity.
type stackKey struct {
	outer *trace.Frame
	fn    *ir.Func
	in    *ir.Instr
}

// NewStackTable returns an empty table. Its frames come from chunks that
// start at 32 frames and double up to 1,024, so a short run pays for
// about the stacks it records.
func NewStackTable() *StackTable {
	return &StackTable{
		stacks: make(map[stackKey][]trace.Frame),
		frames: arena.New[trace.Frame](32, 1024),
	}
}

// intern returns the shared stack whose innermost frame is fn at in and
// whose callers are outer (innermost first).
func (t *StackTable) intern(outer []trace.Frame, fn *ir.Func, in *ir.Instr) []trace.Frame {
	k := stackKey{fn: fn, in: in}
	if len(outer) > 0 {
		k.outer = &outer[0]
	}
	if s, ok := t.stacks[k]; ok {
		return s
	}
	s := t.frames.Take(1 + len(outer))
	s[0] = frameAt(fn, in)
	copy(s[1:], outer)
	t.stacks[k] = s
	return s
}

// frameAt is the trace frame of fn executing in (nil before its first
// instruction).
func frameAt(fn *ir.Func, in *ir.Instr) trace.Frame {
	fr := trace.Frame{Func: fn.Name}
	if in != nil {
		fr.InstrID = int(in.ID)
		fr.Loc = in.Loc()
	}
	return fr
}

// internStack returns the running thread's call stack, innermost first,
// from the machine's stack table; in, when non-nil, is the active
// instruction of the top frame. Each frame's outer stack is fixed while
// the frame lives (its callers sit at their call instructions), so it is
// interned on the first event the frame, or a frame it calls, records,
// and reused after that. Calls that record nothing pay nothing.
func (m *Machine) internStack(in *ir.Instr) []trace.Frame {
	n := len(m.frames)
	if n == 0 {
		return nil
	}
	t := m.stacks
	if t == nil {
		t = NewStackTable()
		m.stacks = t
	}
	// The bottom frame's outer stack is empty; find the deepest frame
	// whose outer stack is already known and extend it to the top.
	i := n - 1
	for i > 0 && m.frames[i].outer == nil {
		i--
	}
	for ; i < n-1; i++ {
		f, callee := m.frames[i], m.frames[i+1]
		callee.outer = t.intern(f.outer, f.fn, f.cur)
	}
	top := m.frames[n-1]
	if in == nil {
		in = top.cur
	}
	return t.intern(top.outer, top.fn, in)
}
