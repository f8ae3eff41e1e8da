package static

import (
	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// lineDepthCap bounds the resolver's walk up a pointer's definition.
const lineDepthCap = 32

// LineResolver maps a pointer to the cache lines it addresses, when that
// is statically known: the offset from a line-aligned PM root (a PM
// global, or a pm_alloc/pm_root result; both are line-aligned on the
// simulated machine, as PMDK allocations are on real hardware) is a
// chain of constant ptradds. Unoptimized lowering routes every variable
// through an alloca slot, so the walk sees through a load of a slot that
// does not escape, to the store that defines it earlier in the load's
// block. It is the one definition of "same cache line" that the static
// analysis, the fixer's phase-2 reduction and optimize's flush coalescing
// share.
//
// The zero value is ready to use. It memoizes each slot's escape answer
// for its lifetime, so one resolver serves one module version; inserting
// flushes and fences of PM pointers changes no slot's answer.
type LineResolver struct {
	escapes map[*ir.Instr]bool
}

// Line resolves the size bytes at ptr to their root and line index. It
// fails when the range is not statically resolved or crosses a line
// boundary; two accesses share a line exactly when both roots and both
// indices are equal.
func (r *LineResolver) Line(ptr ir.Value, size int64) (root ir.Value, line int64, ok bool) {
	root, lo, hi, ok := r.lineRange(ptr, size)
	if !ok || lo != hi {
		return nil, 0, false
	}
	return root, lo, true
}

// lineRange resolves the size bytes at ptr (at least one) to their root
// and inclusive line range.
func (r *LineResolver) lineRange(ptr ir.Value, size int64) (ir.Value, int64, int64, bool) {
	if size <= 0 {
		size = 1
	}
	offset := int64(0)
	v := ptr
	for depth := 0; depth < lineDepthCap; depth++ {
		switch x := v.(type) {
		case *ir.Global:
			if !x.PM {
				return nil, 0, 0, false
			}
			return x, offset / pmem.LineSize, (offset + size - 1) / pmem.LineSize, true
		case *ir.Instr:
			switch x.Op {
			case ir.OpPtrAdd:
				c, ok := x.Args[1].(*ir.Const)
				if !ok {
					return nil, 0, 0, false
				}
				offset += c.Val*x.Scale() + x.Disp()
				v = x.Args[0]
			case ir.OpCall:
				if n := x.Callee().Name; n != "pm_alloc" && n != "pm_root" {
					return nil, 0, 0, false
				}
				return x, offset / pmem.LineSize, (offset + size - 1) / pmem.LineSize, true
			case ir.OpLoad:
				slot, ok := x.Args[0].(*ir.Instr)
				if !ok || slot.Op != ir.OpAlloca || r.slotEscapes(slot) {
					return nil, 0, 0, false
				}
				def := reachingSlotStore(slot, x)
				if def == nil {
					return nil, 0, 0, false
				}
				v = def.StoreVal()
			default:
				return nil, 0, 0, false
			}
		default:
			return nil, 0, 0, false
		}
	}
	return nil, 0, 0, false
}

// slotEscapes reports whether an alloca's address is used anywhere other
// than as the direct target of loads and stores: if it escapes, a store
// through another name could redefine the slot, and the backward scan of
// reachingSlotStore would be unsound.
func (r *LineResolver) slotEscapes(slot *ir.Instr) bool {
	if esc, ok := r.escapes[slot]; ok {
		return esc
	}
	esc := false
	for _, b := range slot.Block().Func().Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a != slot {
					continue
				}
				switch {
				case in.Op == ir.OpLoad && i == 0:
				case (in.Op == ir.OpStore || in.Op == ir.OpNTStore) && i == 1:
				default:
					esc = true
				}
			}
		}
	}
	if r.escapes == nil {
		r.escapes = make(map[*ir.Instr]bool)
	}
	r.escapes[slot] = esc
	return esc
}

// reachingSlotStore finds the store to slot whose value the load
// observes: the nearest store preceding the load in the load's own block,
// which is the reaching definition on every execution of that block
// (the slot does not escape, so no other name redefines it). It returns
// nil when the definition lies outside the block, where the value may
// differ across paths.
func reachingSlotStore(slot, load *ir.Instr) *ir.Instr {
	blk := load.Block()
	idx := -1
	for i, in := range blk.Instrs {
		if in == load {
			idx = i
			break
		}
	}
	for i := idx - 1; i >= 0; i-- {
		in := blk.Instrs[i]
		if (in.Op == ir.OpStore || in.Op == ir.OpNTStore) && in.StorePtr() == slot {
			return in
		}
	}
	return nil
}
