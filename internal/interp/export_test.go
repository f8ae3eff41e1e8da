package interp

import (
	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// NewPrivateStacks is New for a machine that copies the call stack into
// every traced event instead of interning it: the oracle the external
// stack-table tests compare against.
func NewPrivateStacks(mod *ir.Module, opts Options) (*Machine, error) {
	m, err := New(mod, opts)
	if err != nil {
		return nil, err
	}
	m.privateStacks = true
	return m, nil
}

// NewTreeWalk is New for a machine that runs on the tree-walking
// reference interpreter instead of decoded ops: the oracle the decoding
// tests compare against.
func NewTreeWalk(mod *ir.Module, opts Options) (*Machine, error) {
	m, err := New(mod, opts)
	if err != nil {
		return nil, err
	}
	useTreeWalk(m)
	return m, nil
}

// OpCounts returns the executed-instruction count per opcode.
func (m *Machine) OpCounts() [ir.NumOps]int64 { return m.ops }

// MemoryWindows returns what m.Mem reads over the regions a run can have
// written: the volatile globals, the PM the layout and pm_alloc handed
// out, the heap malloc carved, and the top stackBytes of each of the
// run's thread stack segments.
func (m *Machine) MemoryWindows(stackBytes uint64) []byte {
	var out []byte
	read := func(lo, hi uint64) {
		n := len(out)
		out = append(out, make([]byte, hi-lo)...)
		m.Mem.Read(lo, out[n:])
	}
	volEnd := uint64(pmem.GlobalBase)
	for gi, g := range m.Mod.Globals[:len(m.globals)] {
		if end := m.globals[gi] + uint64(g.Elem.Size()); !g.PM && end > volEnd {
			volEnd = end
		}
	}
	read(pmem.GlobalBase, volEnd)
	read(pmem.PMBase, m.pmNext)
	read(pmem.HeapBase, m.heapNext)
	for tid := 0; tid < m.ThreadCount(); tid++ {
		top := pmem.StackBase - uint64(tid)*threadStackSeg
		read(top-stackBytes, top)
	}
	return out
}
