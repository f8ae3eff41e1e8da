package interp

import "hippocrates/internal/ir"

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
