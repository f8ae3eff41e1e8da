// The flow-sensitive per-function pass: funcAnalysis walks one body to a
// block-level fixpoint and emits the function's summary (reports, lints,
// flush effects, checkpoint chains, exit facts). Split out of analyze.go
// so the driver — which decides per function whether to run this pass at
// all or replay a cached summary from the Store — reads on its own.
package static

import (
	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// funcAnalysis is the flow-sensitive pass over one function body.
type funcAnalysis struct {
	az *analyzer
	fn *ir.Func

	sum   *summary
	facts map[string]*fact
	next  int
	in    map[*ir.Block]factState
	pos   map[*ir.Instr]int
}

func newFuncAnalysis(az *analyzer, fn *ir.Func) *funcAnalysis {
	fa := &funcAnalysis{
		az:    az,
		fn:    fn,
		sum:   newSummary(fn),
		facts: make(map[string]*fact),
		in:    make(map[*ir.Block]factState),
		pos:   make(map[*ir.Instr]int),
	}
	fa.sum.fenceMay = az.fenceMay[fn]
	fa.sum.fenceMust = az.fenceMust[fn]
	for _, b := range fn.Blocks {
		for i, in := range b.Instrs {
			fa.pos[in] = i
		}
	}
	return fa
}

func (fa *funcAnalysis) frameOf(in *ir.Instr) trace.Frame {
	return trace.Frame{Func: fa.fn.Name, InstrID: in.ID, Loc: in.Loc}
}

// run solves the block-level fixpoint, then walks the stabilized states
// once more to emit reports, lints, summary effects, and exit facts.
func (fa *funcAnalysis) run() {
	entry := fa.fn.Entry()
	if entry == nil {
		return
	}
	fa.in[entry] = factState{}
	work := []*ir.Block{entry}
	queued := map[*ir.Block]bool{entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		st := fa.in[b].clone()
		dead := false
		for _, in := range b.Instrs {
			if dead = fa.transfer(st, in, false); dead {
				break
			}
		}
		if dead {
			continue
		}
		term := b.Terminator()
		if term == nil {
			continue
		}
		for _, s := range term.Succs {
			first := fa.in[s] == nil
			if first {
				fa.in[s] = factState{}
			}
			if (joinInto(fa.in[s], st) || first) && !queued[s] {
				queued[s] = true
				work = append(work, s)
			}
		}
	}

	for _, b := range fa.fn.Blocks {
		if fa.in[b] == nil {
			continue // unreachable
		}
		st := fa.in[b].clone()
		for _, in := range b.Instrs {
			if in.Op == ir.OpRet {
				for f, bits := range st {
					fa.sum.exit[f] |= bits
				}
			}
			if fa.transfer(st, in, true) {
				break
			}
		}
	}
}

// transfer applies one instruction to the state, mutating st in place. In
// the emit pass it also records reports, lints, and summary effects. It
// returns true when the path dies (abort).
func (fa *funcAnalysis) transfer(st factState, in *ir.Instr, emit bool) bool {
	switch in.Op {
	case ir.OpStore, ir.OpNTStore:
		ptr := in.StorePtr()
		if !fa.mayPM(ptr) {
			return false
		}
		f := fa.internStoreFact(in, ptr, in.StoreTy.Size())
		if in.Op == ir.OpNTStore {
			st[f] |= stFlushed
			f.addFlushSite(fa.frameOf(in))
		} else {
			st[f] |= stDirty
		}

	case ir.OpAtomicStore, ir.OpAtomicRMW, ir.OpAtomicCAS:
		// An atomic write to PM is a store for durability purposes: the
		// cache line is dirty until flushed and fenced like any other
		// (atomicity orders visibility, not persistence). The pointer is
		// the last operand for all three forms. Atomic loads write nothing.
		ptr := in.StorePtr()
		if fa.mayPM(ptr) {
			f := fa.internStoreFact(in, ptr, 8)
			st[f] |= stDirty
		}

	case ir.OpSpawn, ir.OpJoin:
		// The spawnee's effects happen on another thread: its fences never
		// drain this thread's flushes, so its summary must not be applied
		// here. Its own stores are covered by the spawn-aware blanket rule
		// (see AnalyzeWithStore). Join transfers no persistency state
		// either — it orders execution, not durability.

	case ir.OpFlush:
		fa.applyFlush(st, in, in.Args[0], nil, in.FlushK.Ordered(), emit)

	case ir.OpFence:
		if emit {
			drains := false
			for _, bits := range st {
				if bits&stFlushed != 0 {
					drains = true
					break
				}
			}
			if !drains {
				// Locally nothing awaits this fence. A caller context with a
				// flushed fact would be drained here, and one with a dirty
				// fact changes classification (dirty → dirty-fenced), so the
				// lint survives only when every caller context excludes both.
				fa.lint(LintRedundantFence, in, true, true)
			}
		}
		for f, bits := range st {
			if nb := bits.afterFence(); nb == 0 {
				delete(st, f)
			} else {
				st[f] = nb
			}
		}

	case ir.OpCall:
		return fa.transferCall(st, in, emit)
	}
	return false
}

func (fa *funcAnalysis) transferCall(st factState, in *ir.Instr, emit bool) bool {
	callee := in.Callee
	if callee.IsDecl() {
		switch callee.Name {
		case "memcpy", "memset":
			dst := in.Args[0]
			if fa.mayPM(dst) {
				size := int64(0)
				if c, ok := in.Args[2].(*ir.Const); ok {
					size = c.Val
				}
				f := fa.internStoreFact(in, dst, size)
				st[f] |= stDirty
			}
		case "flush_range":
			fa.applyFlush(st, in, in.Args[0], in.Args[1], false, emit)
		case "pm_checkpoint":
			fr := fa.frameOf(in)
			if emit {
				chain := []trace.Frame{fr}
				fa.sum.addCkpt(chain)
				for f, bits := range st {
					fa.sum.mergeReport(f, bits, chain)
				}
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
	fr := fa.frameOf(in)

	if emit {
		// Record the caller-visible persistency context at this call for
		// the top-down lint-context pass.
		var c callCtx
		for _, bits := range st {
			c.dirty = c.dirty || bits&(stDirty|stDirtyFenced) != 0
			c.flushed = c.flushed || bits&stFlushed != 0
		}
		fa.sum.mergeCallCtx(callee, c)
	}

	// Push the caller's live facts through the callee's summary.
	for f, bits := range st {
		mayCov := false
		for i := range sum.flushes {
			if sum.flushes[i].covers(f) {
				mayCov = true
				f.addFlushSite(sum.flushes[i].site)
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
		if emit {
			// The callee's durability points observe the fact in any of
			// the closure states.
			for _, chain := range sum.ckpts {
				fa.sum.mergeReport(f, c, appendFrame(chain, fr))
			}
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
		if post == 0 {
			delete(st, f)
		} else {
			st[f] = post
		}
	}

	if emit {
		// Adopt the callee's own violations, durability points, and flush
		// effects, re-rooted at this call site.
		for _, r := range sum.reports {
			fa.adoptReport(r, fr)
		}
		for _, chain := range sum.ckpts {
			fa.sum.addCkpt(appendFrame(chain, fr))
		}
		for _, fe := range sum.flushes {
			fa.sum.addFlushEffect(fe)
		}
	}

	// The callee's still-undurable stores become caller facts.
	for ef, ebits := range sum.exit {
		nf := fa.internInstantiated(ef, fr)
		st[nf] |= ebits
	}
	return false
}

// adoptReport re-roots a callee-relative report at the given call frame
// and merges it into this function's summary.
func (fa *funcAnalysis) adoptReport(r *report, fr trace.Frame) {
	stack := appendFrame(r.stack, fr)
	k := stackKey(stack)
	mine := fa.sum.reports[k]
	if mine == nil {
		mine = &report{
			stack:      stack,
			op:         r.op,
			size:       r.size,
			nt:         r.nt,
			ckpts:      make(map[string][]trace.Frame),
			flushSites: make(map[pmcheck.SiteKey]trace.Frame),
		}
		fa.sum.reports[k] = mine
	}
	mine.needFlush = mine.needFlush || r.needFlush
	mine.needFence = mine.needFence || r.needFence
	for _, chain := range r.ckpts {
		ext := appendFrame(chain, fr)
		ck := stackKey(ext)
		if _, ok := mine.ckpts[ck]; !ok {
			mine.ckpts[ck] = ext
		}
	}
	for sk, site := range r.flushSites {
		if _, ok := mine.flushSites[sk]; !ok {
			mine.flushSites[sk] = site
		}
	}
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
func (fa *funcAnalysis) coverage(flushIn *ir.Instr, ptr ir.Value, length ir.Value, f *fact) coverKind {
	// Same-value rule.
	if f.def != nil && f.def.Block() == flushIn.Block() && fa.pos[f.def] < fa.pos[flushIn] &&
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
			if f.def != nil && f.def.Block() == flushIn.Block() && fa.pos[f.def] < fa.pos[flushIn] {
				if rootIn, ok := fRoot.(*ir.Instr); ok &&
					(rootIn.Block() != f.def.Block() || fa.pos[rootIn] < fa.pos[f.def]) {
					return covMust
				}
			}
		}
		return covMay
	}

	fe := flushEffect{all: false}
	fe.objs, fe.all = fa.objsOf(ptr)
	if fe.covers(f) {
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
		if !ok || slot.Op != ir.OpAlloca || bv.Args[0] != slot || fa.az.slotEscapes(slot) {
			return false
		}
		// The same nearest in-block slot store (or none for both) means no
		// store separates the two loads within one block execution.
		return reachingSlotStore(slot, av) == reachingSlotStore(slot, bv)
	case av.Op == ir.OpPtrAdd:
		if av.Scale != bv.Scale || av.Disp != bv.Disp {
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
	return fa.az.resolveRange(ptr, size)
}

// applyFlush is the transfer function of OpFlush and builtin flush_range.
func (fa *funcAnalysis) applyFlush(st factState, in *ir.Instr, ptr ir.Value, length ir.Value, ordered bool, emit bool) {
	fr := fa.frameOf(in)
	coveredAny := false
	coveredDirty := false
	for f, bits := range st {
		cov := fa.coverage(in, ptr, length, f)
		if cov == covNone {
			continue
		}
		coveredAny = true
		if bits&(stDirty|stDirtyFenced) != 0 {
			coveredDirty = true
		}
		switch {
		case cov == covMust && ordered:
			// CLFLUSH commits immediately: the fact is durable.
			delete(st, f)
		case cov == covMust:
			if emit && f.nt && bits == stFlushed {
				fa.lint(LintFlushAfterNT, in, true, false)
			}
			st[f] = stFlushed
			f.addFlushSite(fr)
		case ordered:
			// May-commit only removes possibilities; keep the state.
		default:
			if bits&(stDirty|stDirtyFenced) != 0 {
				st[f] |= stFlushed
				f.addFlushSite(fr)
			}
		}
	}
	if emit {
		if !ordered {
			objs, anyObj := fa.objsOf(ptr)
			fa.sum.addFlushEffect(flushEffect{objs: objs, all: anyObj, site: fr})
		}
		// Redundant-flush lint: only for flushes whose target the analysis
		// fully tracks. In a callee the flush may still cover a caller's
		// dirty fact (a may-flush effect), so the lint survives only when
		// every caller context excludes dirty facts; in the entry function
		// there is no caller context and the local argument is complete.
		_, anyObj := fa.objsOf(ptr)
		if !anyObj && fa.az.an.MayPointToPM(ptr) {
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
	stack := []trace.Frame{fa.frameOf(in)}
	key := stackKey(stack)
	if f, ok := fa.facts[key]; ok {
		return f
	}
	f := &fact{
		id:         fa.next,
		stack:      stack,
		key:        key,
		op:         in.Op,
		size:       size,
		nt:         in.Op == ir.OpNTStore,
		ptr:        ptr,
		def:        in,
		flushSites: make(map[pmcheck.SiteKey]trace.Frame),
	}
	fa.next++
	f.objs, f.anyObj = fa.objsOf(ptr)
	if size > 0 {
		f.root, f.lineLo, f.lineHi, f.lineOK = fa.az.resolveRange(ptr, size)
	}
	fa.facts[key] = f
	return f
}

// internInstantiated adopts a callee exit fact as a caller fact with the
// call frame appended to its chain.
func (fa *funcAnalysis) internInstantiated(ef *fact, fr trace.Frame) *fact {
	stack := appendFrame(ef.stack, fr)
	key := stackKey(stack)
	f, ok := fa.facts[key]
	if !ok {
		f = &fact{
			id:         fa.next,
			stack:      stack,
			key:        key,
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
			flushSites: make(map[pmcheck.SiteKey]trace.Frame),
		}
		fa.next++
		fa.facts[key] = f
	}
	for k, site := range ef.flushSites {
		if _, have := f.flushSites[k]; !have {
			f.flushSites[k] = site
		}
	}
	return f
}

// mayPM reports whether a store through v must be tracked: it may point to
// a PM object, or the analysis cannot bound where it points.
func (fa *funcAnalysis) mayPM(v ir.Value) bool {
	return fa.az.mayPM(v)
}

func (az *analyzer) mayPM(v ir.Value) bool {
	ids, known := az.an.PointsToSet(v)
	if !known {
		return true
	}
	for _, id := range ids {
		o := az.an.ObjectByID(id)
		if o != nil && (o.PM || o.Kind == alias.ObjExtern) {
			return true
		}
	}
	return false
}

// objsOf returns the alias objects v may point into; anyObj is set when v
// is untracked or may reach the opaque extern object (then every flush
// must be assumed to cover it, and it must be assumed to cover any line).
func (fa *funcAnalysis) objsOf(v ir.Value) (map[int]bool, bool) {
	ids, known := fa.az.an.PointsToSet(v)
	if !known {
		return nil, true
	}
	m := make(map[int]bool, len(ids))
	anyObj := false
	for _, id := range ids {
		if o := fa.az.an.ObjectByID(id); o != nil && o.Kind == alias.ObjExtern {
			anyObj = true
		}
		m[id] = true
	}
	return m, anyObj
}
