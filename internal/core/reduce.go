package core

import (
	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// reduceFlushGroups implements the paper's phase-2 fix reduction (§4.3):
// fixes that would introduce flushes F1(X) and F2(X) covering the same
// cache line are merged into one. Two planned intraprocedural flushes are
// merged when their stores provably hit the same line (same line-aligned
// root object, same static line index) and sit in the same basic block —
// the merged flush goes after the last store of the group, which still
// satisfies X → F(X) → M → I for every member, and one shared fence
// follows it if any member needs one.
func (fx *Fixer) reduceFlushGroups(plans []*plan) {
	type key struct {
		blk  *ir.Block
		root ir.Value
		line int64
	}
	groups := make(map[key][]*plan)
	for _, p := range plans {
		if p.hoist != nil || !p.report.NeedFlush {
			continue
		}
		if p.storeIn.Op != ir.OpStore && p.storeIn.Op != ir.OpNTStore {
			continue
		}
		root, line, ok := fx.staticLine(p.storeIn.StorePtr(), p.storeIn.StoreTy().Size(), p.storeIn)
		if !ok {
			continue
		}
		k := key{blk: p.storeIn.Block(), root: root, line: line}
		groups[k] = append(groups[k], p)
	}
	for k, group := range groups {
		// Several plans can share one store instruction (the same site
		// reached through different call chains); group at the store
		// level, then apply the outcome to every plan of each store.
		plansOf := make(map[*ir.Instr][]*plan)
		for _, p := range group {
			plansOf[p.storeIn] = append(plansOf[p.storeIn], p)
		}
		if len(plansOf) < 2 {
			continue
		}
		// A call between two members may reach a durability point that
		// must observe the earlier member durable, so a group only spans
		// a call-free run of its block.
		for _, run := range splitRunsAtCalls(k.blk, plansOf) {
			if len(run) < 2 {
				continue
			}
			leaderStore := run[len(run)-1] // last store of the run
			leader := plansOf[leaderStore][0]
			anyFence := false
			for _, st := range run {
				for _, p := range plansOf[st] {
					anyFence = anyFence || p.report.NeedFence
					if st != leaderStore {
						p.groupLeader = leader
					}
				}
			}
			leader.groupFence = anyFence
		}
	}
}

// splitRunsAtCalls walks the block once and collects maximal runs of
// member stores uninterrupted by call instructions.
func splitRunsAtCalls(blk *ir.Block, members map[*ir.Instr][]*plan) [][]*ir.Instr {
	var runs [][]*ir.Instr
	var cur []*ir.Instr
	for _, in := range blk.Instrs {
		if _, ok := members[in]; ok {
			cur = append(cur, in)
			continue
		}
		if in.Op == ir.OpCall && len(cur) > 0 {
			runs = append(runs, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		runs = append(runs, cur)
	}
	return runs
}

// staticLine resolves a store address to (root object, cache-line index)
// when the offset is statically known and the root is a line-aligned PM
// allocation (PM globals and pm_alloc/pm_root results are line-aligned on
// the simulated machine, as PMDK allocations are on real hardware). It
// fails when the store could cross the line.
//
// Unoptimized lowering routes every variable access through an alloca
// slot, so the walk sees through loads of non-escaping slots by finding
// the preceding store to the slot in the same block (use is the
// instruction the address flows into, fixing the scan position).
func (fx *Fixer) staticLine(ptr ir.Value, size int64, use *ir.Instr) (ir.Value, int64, bool) {
	offset := int64(0)
	v := ptr
	_ = use // the use position anchors documentation; loads scan their own block
	for depth := 0; depth < 32; depth++ {
		switch x := v.(type) {
		case *ir.Global:
			if !x.PM {
				return nil, 0, false
			}
			if offset/pmem.LineSize != (offset+size-1)/pmem.LineSize {
				return nil, 0, false // crosses a line boundary
			}
			return x, offset / pmem.LineSize, true
		case *ir.Instr:
			switch x.Op {
			case ir.OpPtrAdd:
				idx, ok := x.Args[1].(*ir.Const)
				if !ok {
					return nil, 0, false
				}
				offset += idx.Val*x.Scale() + x.Disp()
				v = x.Args[0]
			case ir.OpCall:
				if n := x.Callee().Name; n != "pm_alloc" && n != "pm_root" {
					return nil, 0, false
				}
				if offset/pmem.LineSize != (offset+size-1)/pmem.LineSize {
					return nil, 0, false
				}
				return x, offset / pmem.LineSize, true
			case ir.OpLoad:
				slot, ok := x.Args[0].(*ir.Instr)
				if !ok || slot.Op != ir.OpAlloca || fx.slotEscapes(slot) {
					return nil, 0, false
				}
				def := reachingSlotStore(slot, x)
				if def == nil {
					return nil, 0, false
				}
				v = def.StoreVal()
			default:
				return nil, 0, false
			}
		default:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// slotEscapes reports whether an alloca's address is used anywhere other
// than as the direct target of loads and stores — if it escapes, stores
// through other names could redefine it and the backward scan would be
// unsound.
func (fx *Fixer) slotEscapes(slot *ir.Instr) bool {
	if esc, ok := fx.escapeCache[slot]; ok {
		return esc
	}
	esc := false
	fn := slot.Block().Func()
	for _, b := range fn.Blocks {
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
	fx.escapeCache[slot] = esc
	return esc
}

// reachingSlotStore finds the store to slot whose value the load observes:
// the nearest store preceding the load in the load's own block. A store
// that precedes the load in the same block is the reaching definition on
// every execution of that block (slots are non-escaping, so no other name
// can redefine them). Returns nil when the definition lies outside the
// block (then the value may differ across paths and the walk gives up).
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
