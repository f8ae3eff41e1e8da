package core

import (
	"fmt"

	"hippocrates/internal/ir"
)

// apply executes one plan: either intraprocedural insertions at the store
// (and fence sites), or the persistent subprogram transformation at the
// chosen call site. Fix reduction (§4.3 phase 2) happens here: an
// insertion that would duplicate an adjacent identical flush or fence is
// elided and counted in Result.ReducedFixes.
func (fx *Fixer) apply(p *plan) error {
	rep := p.report
	if p.hoist != nil {
		return fx.applyInterproc(p)
	}
	decision := "intraprocedural"
	if !rep.NeedFlush {
		decision = "fence-only"
	}
	fx.cur = &auditCtx{report: rep, decision: decision, why: p.why, score: p.score}
	fix := &Fix{Report: rep, AppliedAt: rep.Store.Site(), Score: p.score}
	switch {
	case rep.NeedFlush && rep.NeedFence:
		fix.Kind = FixIntraFlushFence
	case rep.NeedFlush:
		fix.Kind = FixIntraFlush
	default:
		fix.Kind = FixIntraFence
	}
	switch {
	case p.groupLeader != nil && p.groupLeader != p:
		// Phase-2 reduction: the group leader's flush covers this line.
		fx.result.ReducedFixes++
		fix.AppliedAt = p.groupLeader.report.Store.Site()
		fx.cur.decision = "reduced"
		fx.cur.why = "same-cache-line flush merged into the group leader's"
		fx.audit("merge-flush", fx.opts.FlushKind.String(), p.groupLeader.storeIn)
	case rep.NeedFlush:
		flushIn := fx.insertFlushAfter(p.storeIn)
		if rep.NeedFence || p.groupFence {
			fx.insertFenceAfter(flushIn)
		}
	}
	for _, fin := range p.fenceAfter {
		fx.insertFenceAfter(fin)
	}
	fx.result.Fixes = append(fx.result.Fixes, fix)
	return nil
}

// insertFlushAfter inserts the flush that makes in's PM modification
// durable: a single cache-line flush of the store's own address operand
// (plain or atomic: atomicity orders visibility, not persistence), or a
// flush_range call for bulk builtin copies. It returns the
// instruction that provides the flush — the newly inserted one, or the
// identical existing flush the insertion was reduced against (a paired
// fence must go after it either way).
func (fx *Fixer) insertFlushAfter(in *ir.Instr) *ir.Instr {
	blk := in.Block()
	switch {
	case in.Op.IsStoreLike():
		ptr := in.StorePtr()
		if next := instrAfter(blk, in); !fx.opts.DisableReduction &&
			next != nil && next.Op == ir.OpFlush && next.Args[0] == ptr {
			fx.result.ReducedFixes++
			fx.audit("elide-flush", next.FlushK.String(), next)
			return next
		}
		fl := &ir.Instr{Op: ir.OpFlush, Ty: ir.Void, FlushK: fx.opts.FlushKind, Args: []ir.Value{ptr}, Loc: in.Loc}
		blk.InsertAfter(in, fl)
		fx.audit("insert-flush", fl.FlushK.String(), fl)
		return fl
	case in.Op == ir.OpCall:
		// Builtin memcpy/memset: flush the destination range.
		fr := fx.flushRangeFunc()
		dst, n := in.Args[0], in.Args[2]
		if next := instrAfter(blk, in); !fx.opts.DisableReduction &&
			next != nil && next.Op == ir.OpCall && next.Callee == fr &&
			next.Args[0] == dst && next.Args[1] == n {
			fx.result.ReducedFixes++
			fx.audit("elide-flush", "flush_range", next)
			return next
		}
		call := &ir.Instr{Op: ir.OpCall, Ty: ir.Void, Callee: fr, Args: []ir.Value{dst, n}, Loc: in.Loc}
		blk.InsertAfter(in, call)
		fx.audit("insert-flush-range", "flush_range", call)
		return call
	}
	panic("hippocrates: insertFlushAfter on " + in.Op.String())
}

// insertFenceAfter inserts an SFENCE after in unless one is already there.
func (fx *Fixer) insertFenceAfter(in *ir.Instr) *ir.Instr {
	blk := in.Block()
	if next := instrAfter(blk, in); !fx.opts.DisableReduction &&
		next != nil && next.Op == ir.OpFence {
		fx.result.ReducedFixes++
		fx.audit("elide-fence", next.FenceK.String(), next)
		return nil
	}
	fe := &ir.Instr{Op: ir.OpFence, Ty: ir.Void, FenceK: ir.SFENCE, Loc: in.Loc}
	blk.InsertAfter(in, fe)
	fx.audit("insert-fence", fe.FenceK.String(), fe)
	return fe
}

func instrAfter(blk *ir.Block, in *ir.Instr) *ir.Instr {
	for i, x := range blk.Instrs {
		if x == in {
			if i+1 < len(blk.Instrs) {
				return blk.Instrs[i+1]
			}
			return nil
		}
	}
	return nil
}

// flushRangeFunc returns (declaring on demand) the flush_range builtin.
func (fx *Fixer) flushRangeFunc() *ir.Func {
	if f := fx.mod.Func("flush_range"); f != nil {
		return f
	}
	return fx.mod.AddFunc(ir.NewFunc("flush_range", ir.Void,
		&ir.Param{Name: "p", Ty: ir.Ptr}, &ir.Param{Name: "n", Ty: ir.I64}))
}

// applyInterproc performs the persistent subprogram transformation (§4.2.4)
// at the chosen call site: clone the callee (transitively, reusing clones),
// insert a flush after every may-PM store inside the clones, retarget the
// call, and place a single fence after it.
func (fx *Fixer) applyInterproc(p *plan) error {
	callIn := p.hoist.callIn
	fx.cur = &auditCtx{
		report:   p.report,
		decision: fmt.Sprintf("hoisted %d level(s)", p.hoist.depth),
		why:      p.why,
		score:    p.score,
		depth:    p.hoist.depth,
	}
	var clone *ir.Func
	if existing, done := fx.transSites[callIn]; done {
		clone = existing
		fx.audit("reuse-subprogram", clone.Name, callIn)
	} else {
		var err error
		clone, err = fx.persistentClone(callIn.Callee)
		if err != nil {
			return err
		}
		callIn.Callee = clone
		fx.audit("retarget-call", clone.Name, callIn)
		fx.insertFenceAfter(callIn)
		fx.transSites[callIn] = clone
	}
	fx.result.Fixes = append(fx.result.Fixes, &Fix{
		Kind:       FixInterproc,
		Report:     p.report,
		AppliedAt:  p.hoist.frame,
		HoistDepth: p.hoist.depth,
		Score:      p.score,
		Clones:     []string{clone.Name},
	})
	return nil
}

// persistentClone returns the persistent subprogram for fn, creating it if
// needed. The clone flushes after every store that may modify PM and calls
// persistent versions of every callee that (transitively) modifies PM;
// callees with no PM effect are shared with the original (§4.2.4: reuse
// keeps code bloat negligible).
func (fx *Fixer) persistentClone(fn *ir.Func) (*ir.Func, error) {
	if c, ok := fx.clones[fn]; ok {
		fx.auditSite("reuse-subprogram", c.Name, "@"+fn.Name)
		return c, nil
	}
	if fn.IsDecl() {
		return nil, fmt.Errorf("hippocrates: cannot create persistent subprogram of declaration @%s", fn.Name)
	}
	name := fn.Name + "__pm"
	for i := 2; fx.mod.Func(name) != nil; i++ {
		name = fmt.Sprintf("%s__pm%d", fn.Name, i)
	}
	// Record PM-relevant instruction IDs on the ORIGINAL body (marks and
	// aliasing are defined over original values), then rewrite the clone
	// through the ID correspondence CloneFunc preserves.
	type edit struct {
		id   int
		kind int // 0 flush-after-store, 1 flush_range-after-call, 2 retarget call
		g    *ir.Func
	}
	// Same-line store runs get one flush after their last member (the
	// phase-2 reduction applied inside the subprogram): group provably
	// same-line stores per block.
	type lineKey struct {
		blk  *ir.Block
		root ir.Value
		line int64
		run  int // call-free run index within the block
	}
	lineLeader := map[lineKey]*ir.Instr{}
	storeGroup := map[*ir.Instr]lineKey{}
	grouped := 0
	if !fx.opts.DisableReduction {
		for _, b := range fn.Blocks {
			// Runs reset at every call: a callee may reach a durability
			// point that must already observe earlier same-line stores
			// flushed.
			runIdx := 0
			for _, in := range b.Instrs {
				if in.Op == ir.OpCall {
					runIdx++
					continue
				}
				if (in.Op == ir.OpStore || in.Op == ir.OpNTStore) && fx.marks.PM(in.StorePtr()) {
					root, line, ok := fx.staticLine(in.StorePtr(), in.StoreTy.Size(), in)
					if !ok {
						continue
					}
					k := lineKey{blk: b, root: root, line: line, run: runIdx}
					if lineLeader[k] != nil {
						grouped++
					}
					lineLeader[k] = in // later stores overwrite: leader = last of the run
					storeGroup[in] = k
				}
			}
		}
	}
	fx.result.ReducedFixes += grouped

	var edits []edit
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op.IsStoreLike():
				if fx.marks.PM(in.StorePtr()) {
					if k, ok := storeGroup[in]; ok && lineLeader[k] != in {
						continue // covered by the group leader's flush
					}
					edits = append(edits, edit{id: in.ID, kind: 0})
				}
			case in.Op == ir.OpCall:
				callee := in.Callee
				switch {
				case callee.IsDecl():
					if (callee.Name == "memcpy" || callee.Name == "memset") && fx.marks.PM(in.Args[0]) {
						edits = append(edits, edit{id: in.ID, kind: 1})
					}
				case fx.modifiesPM(callee):
					edits = append(edits, edit{id: in.ID, kind: 2, g: callee})
				}
			}
		}
	}
	clone := ir.CloneFunc(fn, name)
	// Seed the memo before recursing so mutual/self recursion resolves to
	// the clone being built.
	fx.clones[fn] = clone
	fx.result.ClonesCreated++
	fx.auditSite("clone-subprogram", clone.Name, "@"+fn.Name)

	for _, e := range edits {
		in := clone.InstrByID(e.id)
		if in == nil {
			return nil, fmt.Errorf("hippocrates: lost instruction %d while cloning @%s", e.id, fn.Name)
		}
		switch e.kind {
		case 0:
			fx.insertFlushAfter(in)
		case 1:
			fx.insertFlushAfter(in)
		case 2:
			gClone, err := fx.persistentClone(e.g)
			if err != nil {
				return nil, err
			}
			in.Callee = gClone
			fx.audit("retarget-call", gClone.Name, in)
		}
	}
	return clone, nil
}

// modifiesPM reports whether fn may store to persistent memory, directly
// or through callees. Cycles in the call graph are treated as "unknown yet"
// and resolve to the caller's other evidence.
func (fx *Fixer) modifiesPM(fn *ir.Func) bool {
	const (
		stUnknown = iota
		stVisiting
		stYes
		stNo
	)
	switch fx.needsWork[fn] {
	case stYes:
		return true
	case stNo:
		return false
	case stVisiting:
		return false // break the cycle; the outer call decides
	}
	fx.needsWork[fn] = stVisiting
	found := false
	sawCycle := false
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch {
			case in.Op.IsStoreLike():
				if fx.marks.PM(in.StorePtr()) {
					found = true
				}
			case in.Op == ir.OpCall:
				callee := in.Callee
				if callee.IsDecl() {
					if (callee.Name == "memcpy" || callee.Name == "memset") && fx.marks.PM(in.Args[0]) {
						found = true
					}
				} else {
					if fx.needsWork[callee] == stVisiting {
						sawCycle = true
					}
					if fx.modifiesPM(callee) {
						found = true
					}
				}
			}
		}
		if found {
			break
		}
	}
	switch {
	case found:
		fx.needsWork[fn] = stYes
	case sawCycle:
		// A negative answer obtained through a cycle is provisional:
		// recompute next time.
		fx.needsWork[fn] = stUnknown
	default:
		fx.needsWork[fn] = stNo
	}
	return found
}
