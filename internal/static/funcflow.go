// The flow-sensitive per-function pass: funcAnalysis walks one body to a
// block-level fixpoint and emits the function's summary (reports, lints,
// flush effects, checkpoint chains, exit facts). Split out of analyze.go
// so the driver — which decides per function whether to run this pass at
// all or replay a cached summary from the Store — reads on its own.
package static

import (
	"slices"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// funcAnalysis is the flow-sensitive pass over one function body.
// Everything it keeps per block or per instruction is a slice indexed by
// block position or by instruction ID (unique within a function, as every
// frame the analysis emits already assumes).
type funcAnalysis struct {
	az *analyzer
	fn *ir.Func
	ct *chainTable

	sum   *summary
	facts []*fact // by fact id; shared with sum.facts

	// storeFact[id] is 1 + the fact of the store-like instruction with
	// that ID (0: none yet); chainFact holds the facts adopted from callee
	// exits by chain; callFacts[id][j] is 1 + the fact callee exit fact j
	// becomes at the call instruction with that ID.
	storeFact []int32
	chainFact map[chainID]int32
	callFacts [][]int32
	// frameIDs[id] is 1 + the interned frame of the instruction with that
	// ID; pos[id] is its position in its block.
	frameIDs []int32
	pos      []int32

	// in[b] is the input state of the block at position b, and reached[b]
	// whether any path has reached it yet; succs[b] are the positions of
	// its successors.
	in      []factState
	reached []bool
	succs   [][]int32

	// sites is transferCall's scratch list of flush sites.
	sites []int32
}

func newFuncAnalysis(az *analyzer, fn *ir.Func) *funcAnalysis {
	fa := &funcAnalysis{
		az:        az,
		fn:        fn,
		ct:        az.chains,
		sum:       newSummary(fn),
		chainFact: make(map[chainID]int32),
		in:        make([]factState, len(fn.Blocks)),
		reached:   make([]bool, len(fn.Blocks)),
		succs:     make([][]int32, len(fn.Blocks)),
	}
	fa.sum.fenceMay = az.fenceMay[fn]
	fa.sum.fenceMust = az.fenceMust[fn]
	maxID := -1
	blockPos := make(map[*ir.Block]int32, len(fn.Blocks))
	for i, b := range fn.Blocks {
		blockPos[b] = int32(i)
		for _, in := range b.Instrs {
			maxID = max(maxID, int(in.ID))
		}
	}
	fa.pos = make([]int32, maxID+1)
	fa.frameIDs = make([]int32, maxID+1)
	fa.storeFact = make([]int32, maxID+1)
	fa.callFacts = make([][]int32, maxID+1)
	for i, b := range fn.Blocks {
		for j, in := range b.Instrs {
			fa.pos[in.ID] = int32(j)
		}
		if t := b.Terminator(); t != nil {
			for _, s := range t.Succs() {
				fa.succs[i] = append(fa.succs[i], blockPos[s])
			}
		}
	}
	return fa
}

func (fa *funcAnalysis) frameOf(in *ir.Instr) trace.Frame {
	return trace.Frame{Func: fa.fn.Name, InstrID: int(in.ID), Loc: in.Loc()}
}

// frameID is in's interned frame.
func (fa *funcAnalysis) frameID(in *ir.Instr) int32 {
	if id := fa.frameIDs[in.ID]; id != 0 {
		return id - 1
	}
	id := fa.ct.frame(fa.frameOf(in))
	fa.frameIDs[in.ID] = id + 1
	return id
}

// run solves the block-level fixpoint, then walks the stabilized states
// once more to emit reports, lints, summary effects, and exit facts.
func (fa *funcAnalysis) run() {
	if fa.fn.Entry() == nil {
		return
	}
	fa.reached[0] = true
	work := []int32{0}
	queued := make([]bool, len(fa.fn.Blocks))
	queued[0] = true
	var st factState
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		st = append(st[:0], fa.in[b]...)
		dead := false
		for _, in := range fa.fn.Blocks[b].Instrs {
			if dead = fa.transfer(&st, in, false); dead {
				break
			}
		}
		if dead {
			continue
		}
		for _, s := range fa.succs[b] {
			first := !fa.reached[s]
			fa.reached[s] = true
			if (joinInto(&fa.in[s], st) || first) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}

	for b, blk := range fa.fn.Blocks {
		if !fa.reached[b] {
			continue // unreachable
		}
		st = append(st[:0], fa.in[b]...)
		for _, in := range blk.Instrs {
			if in.Op == ir.OpRet {
				joinInto(&fa.sum.exit, st)
			}
			if fa.transfer(&st, in, true) {
				break
			}
		}
	}
}

// transfer applies one instruction to the state, mutating st in place. In
// the emit pass it also records reports, lints, and summary effects. It
// returns true when the path dies (abort).
func (fa *funcAnalysis) transfer(st *factState, in *ir.Instr, emit bool) bool {
	switch in.Op {
	case ir.OpStore, ir.OpNTStore:
		ptr := in.StorePtr()
		if !fa.az.ptsOf(ptr).mayPM {
			return false
		}
		f := fa.internStoreFact(in, ptr, in.StoreTy().Size())
		if in.Op == ir.OpNTStore {
			st.or(f.id, stFlushed)
			f.flushSites = f.flushSites.with(fa.frameID(in))
		} else {
			st.or(f.id, stDirty)
		}

	case ir.OpAtomicStore, ir.OpAtomicRMW, ir.OpAtomicCAS:
		// An atomic write to PM is a store for durability purposes: the
		// cache line is dirty until flushed and fenced like any other
		// (atomicity orders visibility, not persistence). The pointer is
		// the last operand for all three forms. Atomic loads write nothing.
		ptr := in.StorePtr()
		if fa.az.ptsOf(ptr).mayPM {
			f := fa.internStoreFact(in, ptr, 8)
			st.or(f.id, stDirty)
		}

	case ir.OpSpawn, ir.OpJoin:
		// The spawnee's effects happen on another thread: its fences never
		// drain this thread's flushes, so its summary must not be applied
		// here. Its own stores are covered by the spawn-aware blanket rule
		// (see AnalyzeWithStore). Join transfers no persistency state
		// either — it orders execution, not durability.

	case ir.OpFlush:
		fa.applyFlush(*st, in, in.Args[0], nil, in.FlushK.Ordered(), emit)

	case ir.OpFence:
		if emit && !st.any(laneFlushed) {
			// Locally nothing awaits this fence. A caller context with a
			// flushed fact would be drained here, and one with a dirty
			// fact changes classification (dirty → dirty-fenced), so the
			// lint survives only when every caller context excludes both.
			fa.lint(LintRedundantFence, in, true, true)
		}
		st.fence()

	case ir.OpCall:
		return fa.transferCall(st, in, emit)
	}
	return false
}

func (fa *funcAnalysis) transferCall(st *factState, in *ir.Instr, emit bool) bool {
	callee := in.Callee()
	if callee.IsDecl() {
		switch callee.Name {
		case "memcpy", "memset":
			dst := in.Args[0]
			if fa.az.ptsOf(dst).mayPM {
				size := int64(0)
				if c, ok := in.Args[2].(*ir.Const); ok {
					size = c.Val
				}
				f := fa.internStoreFact(in, dst, size)
				st.or(f.id, stDirty)
			}
		case "flush_range":
			fa.applyFlush(*st, in, in.Args[0], in.Args[1], false, emit)
		case "pm_checkpoint":
			if emit {
				chain := fa.ct.push(0, fa.frameID(in))
				fa.sum.ckpts.add(chain)
				st.each(func(id int32, bits stateBits) {
					fa.sum.mergeReport(fa.facts[id], bits, chain)
				})
			}
		case "abort_msg":
			return true // the interpreter halts here; the path dies
		}
		// pm_alloc/pm_root/malloc/free/print_*: no persistency effect.
		return false
	}

	sum := fa.az.summaryOf(callee)
	fenceMay := fa.az.fenceMay[callee]
	fenceMust := fa.az.fenceMust[callee]
	fr := fa.frameID(in)

	var ckpts []chainID
	if emit {
		// Record the caller-visible persistency context at this call for
		// the top-down lint-context pass.
		fa.sum.mergeCallCtx(callee, callCtx{
			dirty:   st.any(laneDirty | laneDirtyF),
			flushed: st.any(laneFlushed),
		})
		ckpts = make([]chainID, len(sum.ckpts))
		for i, c := range sum.ckpts {
			ckpts[i] = fa.ct.push(c, fr)
		}
	}

	// Push the caller's live facts through the callee's summary.
	st.each(func(id int32, bits stateBits) {
		f := fa.facts[id]
		covering := fa.sites[:0]
		for _, fe := range sum.flushes {
			if fe.covers(f) {
				covering = append(covering, fa.ct.siteOf(fe))
			}
		}
		fa.sites = covering
		mayCov := len(covering) > 0
		if mayCov {
			// One merge per fact and call: a callee can flush a fact at
			// hundreds of sites, and adding them one by one copies the
			// set each time.
			slices.Sort(covering)
			covering = slices.Compact(covering)
			if len(f.flushSites) == 0 {
				f.flushSites = slices.Clone(covering) // covering is scratch
			} else {
				f.flushSites = f.flushSites.union(covering)
			}
		}
		// Reach-closure over the callee's possible effects: a may-flush
		// can move dirty instances to flushed, a may-fence can move dirty
		// to dirty-fenced. Iterating covers flush-then-fence-then-flush
		// interleavings.
		c := bits
		for {
			old := c
			if mayCov && c&(stDirty|stDirtyFenced) != 0 {
				c |= stFlushed
			}
			if (fenceMay || fenceMust) && c&stDirty != 0 {
				c |= stDirtyFenced
			}
			if c == old {
				break
			}
		}
		// The callee's durability points observe the fact in any of the
		// closure states.
		for _, chain := range ckpts {
			fa.sum.mergeReport(f, c, chain)
		}
		post := c
		if fenceMust {
			// A certain fence leaves no instance dirty-unfenced, and
			// drains flushed instances unless the callee may re-flush a
			// still-dirty instance after its last fence.
			post &^= stDirty
			if !(mayCov && c&(stDirty|stDirtyFenced) != 0) {
				post &^= stFlushed
			}
		}
		st.set(id, post)
	})

	if emit {
		// Adopt the callee's own violations, durability points, and flush
		// effects, re-rooted at this call site.
		for _, r := range sum.reports {
			fa.adoptReport(r, fr)
		}
		for _, c := range ckpts {
			fa.sum.ckpts.add(c)
		}
		for _, fe := range sum.flushes {
			fa.sum.addFlushEffect(fa.ct, fe)
		}
	}

	// The callee's still-undurable stores become caller facts.
	links := fa.callFacts[in.ID]
	if len(links) < len(sum.facts) {
		links = append(links, make([]int32, len(sum.facts)-len(links))...)
		fa.callFacts[in.ID] = links
	}
	sum.exit.each(func(j int32, ebits stateBits) {
		if links[j] == 0 {
			links[j] = fa.internInstantiated(sum.facts[j], fr).id + 1
		}
		st.or(links[j]-1, ebits)
	})
	return false
}

// adoptReport re-roots a callee-relative report at the given call frame
// and merges it into this function's summary.
func (fa *funcAnalysis) adoptReport(r *report, fr int32) {
	mine := fa.sum.reportFor(fa.ct.push(r.chain, fr), r.op, r.size, r.nt)
	mine.needFlush = mine.needFlush || r.needFlush
	mine.needFence = mine.needFence || r.needFence
	for _, c := range r.ckpts {
		mine.ckpts.add(fa.ct.push(c, fr))
	}
	mine.flushSites = mine.flushSites.union(r.flushSites)
}

// coverage classifications for one flush against one fact.
type coverKind int

const (
	covNone coverKind = iota
	covMay
	covMust
)

// coverage decides how a flush instruction relates to a fact's cache
// line(s). Must-coverage (which performs a strong state update) is only
// claimed when every dynamic instance of the fact is provably flushed:
//
//   - same SSA address value, flush later in the same (branch-free) block
//     as the defining store — within one block execution the address is
//     fixed, so each instance is flushed in its own iteration;
//   - both addresses resolve to constant line ranges off the same PM
//     global — a global's lines are the same in every execution.
//
// pm_alloc/pm_root-rooted resolutions must NOT upgrade to must: the same
// allocation site can produce several runtime objects (loops, recursion),
// and a flush of one activation's line does not flush another's.
//
// target is the flush's effect on alias objects.
func (fa *funcAnalysis) coverage(flushIn *ir.Instr, ptr ir.Value, length ir.Value, target *flushEffect, f *fact) coverKind {
	// Same-value rule.
	if f.def != nil && f.def.Block() == flushIn.Block() && fa.pos[f.def.ID] < fa.pos[flushIn.ID] &&
		fa.sameAddr(ptr, f.ptr, 0) {
		if length == nil {
			// Single-line flush: covers iff the fact fits one line. Plain
			// stores always do (the machine model forbids split stores);
			// memcpy facts only when resolved to a single line.
			if f.op != ir.OpCall || (f.lineOK && f.lineLo == f.lineHi) {
				return covMust
			}
		} else if fa.lengthCovers(length, f) {
			return covMust
		}
	}

	fRoot, fLo, fHi, fOK := fa.resolveFlushRange(ptr, length)
	if fOK && f.lineOK {
		if fRoot != f.root || fHi < f.lineLo || fLo > f.lineHi {
			return covNone // provably disjoint lines
		}
		if fLo <= f.lineLo && f.lineHi <= fHi {
			// A global's lines are the same in every execution.
			if _, isGlobal := fRoot.(*ir.Global); isGlobal {
				return covMust
			}
			// Allocation-rooted: sound only within one block execution of
			// the defining store (same root value ⇒ same activation ⇒ same
			// lines), and only if the allocation cannot re-execute between
			// the store and the flush. This recognizes the fixer's
			// line-grouped flush, which covers several same-line stores
			// through different derived pointers.
			if f.def != nil && f.def.Block() == flushIn.Block() && fa.pos[f.def.ID] < fa.pos[flushIn.ID] {
				if rootIn, ok := fRoot.(*ir.Instr); ok &&
					(rootIn.Block() != f.def.Block() || fa.pos[rootIn.ID] < fa.pos[f.def.ID]) {
					return covMust
				}
			}
		}
		return covMay
	}

	if target.covers(f) {
		return covMay
	}
	return covNone
}

// sameAddrDepthCap bounds the structural comparison below.
const sameAddrDepthCap = 16

// sameAddr reports whether two address values are provably equal whenever
// both have been computed during the same execution of their (shared)
// defining block. Identical SSA values trivially qualify; beyond that, two
// distinct instructions qualify when they are structurally identical pure
// computations in the same block whose leaves are the same constants,
// globals, parameters, or loads of a non-escaping stack slot with no slot
// store between them. The frontend recomputes addresses per expression
// (`a[i] = v; clwb(&a[i]);` yields two ptradd chains), so pointer identity
// alone would miss the canonical store-then-flush idiom.
func (fa *funcAnalysis) sameAddr(a, b ir.Value, depth int) bool {
	if a == b {
		return true
	}
	if depth >= sameAddrDepthCap {
		return false
	}
	av, ok := a.(*ir.Instr)
	if !ok {
		ac, aok := a.(*ir.Const)
		bc, bok := b.(*ir.Const)
		return aok && bok && ac.Val == bc.Val
	}
	bv, ok := b.(*ir.Instr)
	if !ok || av.Op != bv.Op || av.Block() != bv.Block() || len(av.Args) != len(bv.Args) {
		return false
	}
	switch {
	case av.Op == ir.OpLoad:
		slot, ok := av.Args[0].(*ir.Instr)
		if !ok || slot.Op != ir.OpAlloca || bv.Args[0] != slot || fa.az.lines.slotEscapes(slot) {
			return false
		}
		// The same nearest in-block slot store (or none for both) means no
		// store separates the two loads within one block execution.
		return reachingSlotStore(slot, av) == reachingSlotStore(slot, bv)
	case av.Op == ir.OpPtrAdd:
		if av.Scale() != bv.Scale() || av.Disp() != bv.Disp() {
			return false
		}
	case av.Op.IsBinary() || av.Op.IsCmp() || av.Op.IsCast():
	default:
		return false // calls, allocas, etc. are not pure recomputations
	}
	for i := range av.Args {
		if !fa.sameAddr(av.Args[i], bv.Args[i], depth+1) {
			return false
		}
	}
	return true
}

// lengthCovers reports whether a flush_range length certainly covers the
// whole fact starting at the same address.
func (fa *funcAnalysis) lengthCovers(length ir.Value, f *fact) bool {
	if f.op == ir.OpCall {
		// memcpy/memset fact: the range call must span the same byte count.
		if lc, ok := length.(*ir.Const); ok && f.size > 0 && lc.Val >= f.size {
			return true
		}
		// Same SSA length value as the copy's own length operand.
		if f.def != nil && len(f.def.Args) == 3 && f.def.Args[2] == length {
			return true
		}
		return false
	}
	lc, ok := length.(*ir.Const)
	return ok && f.size > 0 && lc.Val >= f.size
}

// resolveFlushRange resolves the line range a flush covers: one line for a
// plain flush, the constant-length range for flush_range (an unknown
// length under-approximates to the first line, which is sound: missing a
// may-flush only keeps a fact dirtier, and dirty needs subsume flushed
// needs).
func (fa *funcAnalysis) resolveFlushRange(ptr ir.Value, length ir.Value) (ir.Value, int64, int64, bool) {
	size := int64(1)
	if length != nil {
		if c, ok := length.(*ir.Const); ok && c.Val > 0 {
			size = c.Val
		}
	}
	return fa.az.lines.lineRange(ptr, size)
}

// applyFlush is the transfer function of OpFlush and builtin flush_range.
func (fa *funcAnalysis) applyFlush(st factState, in *ir.Instr, ptr ir.Value, length ir.Value, ordered bool, emit bool) {
	fr := fa.frameID(in)
	// The flush's objects resolve once per pointer per run, and serve every
	// fact the flush is tested against and the summary effect it emits.
	pts := fa.az.ptsOf(ptr)
	target := flushEffect{objs: pts.objs, all: pts.anyObj, site: fr}
	coveredAny := false
	coveredDirty := false
	st.each(func(id int32, bits stateBits) {
		f := fa.facts[id]
		cov := fa.coverage(in, ptr, length, &target, f)
		if cov == covNone {
			return
		}
		coveredAny = true
		if bits&(stDirty|stDirtyFenced) != 0 {
			coveredDirty = true
		}
		switch {
		case cov == covMust && ordered:
			// CLFLUSH commits immediately: the fact is durable.
			st.set(id, 0)
		case cov == covMust:
			if emit && f.nt && bits == stFlushed {
				fa.lint(LintFlushAfterNT, in, true, false)
			}
			st.set(id, stFlushed)
			f.flushSites = f.flushSites.with(fr)
		case ordered:
			// May-commit only removes possibilities; keep the state.
		default:
			if bits&(stDirty|stDirtyFenced) != 0 {
				st.set(id, bits|stFlushed)
				f.flushSites = f.flushSites.with(fr)
			}
		}
	})
	if emit {
		if !ordered {
			fe := target
			fa.sum.addFlushEffect(fa.ct, &fe)
		}
		// Redundant-flush lint: only for flushes whose target the analysis
		// fully tracks. In a callee the flush may still cover a caller's
		// dirty fact (a may-flush effect), so the lint survives only when
		// every caller context excludes dirty facts; in the entry function
		// there is no caller context and the local argument is complete.
		if !target.all && fa.az.an.MayPointToPM(ptr) {
			if (ordered && !coveredAny) || (!ordered && !coveredDirty) {
				fa.lint(LintRedundantFlush, in, true, false)
			}
		}
	}
}

func (fa *funcAnalysis) lint(kind LintKind, in *ir.Instr, needNoDirty, needNoFlushed bool) {
	fr := fa.frameOf(in)
	for _, l := range fa.sum.lints {
		if l.Kind == kind && l.Site.Func == fr.Func && l.Site.InstrID == fr.InstrID {
			return
		}
	}
	blk := ""
	if b := in.Block(); b != nil {
		blk = b.Name
	}
	fa.sum.lints = append(fa.sum.lints, &Lint{
		Kind: kind, Site: fr, Block: blk,
		needNoDirtyCtx: needNoDirty, needNoFlushedCtx: needNoFlushed,
	})
}

// internStoreFact creates (or returns) the fact for a store-like
// instruction in this function.
func (fa *funcAnalysis) internStoreFact(in *ir.Instr, ptr ir.Value, size int64) *fact {
	if id := fa.storeFact[in.ID]; id != 0 {
		return fa.facts[id-1]
	}
	pts := fa.az.ptsOf(ptr)
	f := fa.newFact(&fact{
		chain:  fa.ct.push(0, fa.frameID(in)),
		op:     in.Op,
		size:   size,
		nt:     in.Op == ir.OpNTStore,
		ptr:    ptr,
		def:    in,
		objs:   pts.objs,
		anyObj: pts.anyObj,
	})
	if size > 0 {
		f.root, f.lineLo, f.lineHi, f.lineOK = fa.az.lines.lineRange(ptr, size)
	}
	fa.storeFact[in.ID] = f.id + 1
	return f
}

// internInstantiated adopts a callee exit fact as a caller fact with the
// call frame appended to its chain. The caller fact starts out sharing
// the callee fact's flush sites.
func (fa *funcAnalysis) internInstantiated(ef *fact, fr int32) *fact {
	chain := fa.ct.push(ef.chain, fr)
	if id, ok := fa.chainFact[chain]; ok {
		f := fa.facts[id]
		f.flushSites = f.flushSites.union(ef.flushSites)
		return f
	}
	f := fa.newFact(&fact{
		chain:      chain,
		op:         ef.op,
		size:       ef.size,
		nt:         ef.nt,
		ptr:        ef.ptr,
		def:        nil, // callee instruction: same-block rule never applies here
		objs:       ef.objs,
		anyObj:     ef.anyObj,
		lineOK:     ef.lineOK,
		root:       ef.root,
		lineLo:     ef.lineLo,
		lineHi:     ef.lineHi,
		flushSites: ef.flushSites,
	})
	fa.chainFact[chain] = f.id
	return f
}

// newFact numbers f as this function's next fact.
func (fa *funcAnalysis) newFact(f *fact) *fact {
	f.id = int32(len(fa.facts))
	fa.facts = append(fa.facts, f)
	fa.sum.facts = fa.facts
	return f
}

// ptsInfo is what the analysis asks of one pointer's points-to set.
type ptsInfo struct {
	// objs are the objects it may point into; anyObj is set when it is
	// untracked or may reach the opaque extern object (then every flush
	// must be assumed to cover it, and it must be assumed to cover any
	// line).
	objs   objSet
	anyObj bool
	// mayPM: a store through it must be tracked, because it may point to
	// a PM object or the analysis cannot bound where it points.
	mayPM bool
}

// ptsOf answers ptsInfo for v, once per value per run.
func (az *analyzer) ptsOf(v ir.Value) ptsInfo {
	if p, ok := az.pts[v]; ok {
		return p
	}
	var p ptsInfo
	ids, known := az.an.PointsToSet(v)
	if !known {
		p = ptsInfo{anyObj: true, mayPM: true}
	} else {
		p.objs = ids
		for _, id := range ids {
			if o := az.an.ObjectByID(int(id)); o != nil {
				if o.Kind == alias.ObjExtern {
					p.anyObj, p.mayPM = true, true
				}
				p.mayPM = p.mayPM || o.PM
			}
		}
	}
	az.pts[v] = p
	return p
}
