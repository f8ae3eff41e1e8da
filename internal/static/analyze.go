package static

import (
	"crypto/sha256"
	"encoding/hex"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/lru"
	"hippocrates/internal/pmem"
)

// analyzer drives the whole-module analysis: alias facts, fence flags, and
// bottom-up summaries in reverse-topological SCC order.
type analyzer struct {
	mod   *ir.Module
	an    *alias.Analysis
	entry *ir.Func

	// store, when non-nil, caches canonicalized function summaries across
	// runs; sumHash holds each function's summary content hash for this
	// run (cache keys of callers chain it in, which is what makes
	// invalidation transitive without any explicit tracking).
	store     *lru.Cache[string, *FuncSummary]
	sumHash   map[*ir.Func]string
	sumHits   int
	sumMisses int
	// objsCache interns resolved object-ID sets by their canonical refs
	// key. Facts never mutate their objs maps after creation, and one
	// points-to set recurs across most facts of a function, so warm runs
	// share one map per distinct set instead of allocating thousands.
	objsCache map[string]map[int]bool
	// instrIdx is instrByID's per-function dense ID index.
	instrIdx map[*ir.Func][]*ir.Instr

	sums      map[*ir.Func]*summary
	fenceMay  map[*ir.Func]bool
	fenceMust map[*ir.Func]bool

	escapeCache map[*ir.Instr]bool
}

// sccIterCap bounds fixpoint rounds inside one recursive SCC; summaries
// grow monotonically over a finite lattice, so this is a safety valve, not
// a precision knob.
const sccIterCap = 32

func (az *analyzer) summaryOf(fn *ir.Func) *summary {
	if s := az.sums[fn]; s != nil {
		return s
	}
	// Not yet computed (first round of a recursive SCC): the empty summary
	// is the bottom of the ascending chain.
	return newSummary(fn)
}

// run computes summaries for every function reachable from the entry, in
// reverse-topological SCC order. Non-recursive functions take the
// single-pass path (with optional summary-store lookup); recursive SCCs
// keep the iterative fixpoint and bypass the cache — their summaries
// depend on their own ascending chain, not just on body + callee hashes.
func (az *analyzer) run() {
	nodes, succs := callGraph(az.entry)
	for _, scc := range sccOrder(nodes, succs) {
		if len(scc) == 1 && !callsSelf(scc[0], succs) {
			az.runSingle(scc[0], succs)
			continue
		}
		az.fenceFlags(scc)
		az.summaries(scc)
		for _, fn := range scc {
			az.finishHash(fn)
		}
	}
}

func callsSelf(fn *ir.Func, succs map[*ir.Func][]*ir.Func) bool {
	for _, c := range succs[fn] {
		if c == fn {
			return true
		}
	}
	return false
}

// keyOf builds fn's summary cache key: the body fingerprint, the digest of
// fn's slice of the solved points-to relation (summaries are not pure
// functions of the body — parameter points-to sets flow in from callers),
// and each direct callee's summary content hash. Callees are keyed by
// hash, not fingerprint, so a callee edit that leaves its summary
// byte-identical stops invalidation right there.
func (az *analyzer) keyOf(fn *ir.Func, succs map[*ir.Func][]*ir.Func) string {
	h := sha256.New()
	h.Write([]byte(az.an.Fingerprint(fn)))
	h.Write([]byte{'|'})
	h.Write([]byte(az.an.FuncDigest(fn)))
	for _, c := range succs[fn] {
		h.Write([]byte{'|'})
		h.Write([]byte(c.Name))
		h.Write([]byte{'='})
		h.Write([]byte(az.sumHash[c]))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// runSingle analyzes one non-recursive function. With callee flags and
// summaries final, one funcAnalysis pass is the fixpoint, and the summary
// is a deterministic function of the cache key — so a store hit replays
// it without touching the body.
func (az *analyzer) runSingle(fn *ir.Func, succs map[*ir.Func][]*ir.Func) {
	var key string
	if az.store != nil {
		key = az.keyOf(fn, succs)
		if ps, ok := az.store.Get(key); ok {
			if s := instantiate(ps, fn, az); s != nil {
				az.sumHits++
				az.sums[fn] = s
				az.fenceMay[fn] = ps.FenceMay
				az.fenceMust[fn] = ps.FenceMust
				az.sumHash[fn] = ps.Hash
				return
			}
		}
		az.sumMisses++
	}
	az.fenceMay[fn] = az.scanFenceMay(fn)
	az.fenceMust[fn] = az.fenceMustOf(fn)
	fa := newFuncAnalysis(az, fn)
	fa.run()
	az.sums[fn] = fa.sum
	ps := canonicalize(fa.sum, az)
	az.sumHash[fn] = ps.Hash
	if az.store != nil {
		az.store.Add(key, ps)
	}
}

// finishHash assigns a recursive function's summary hash after its SCC
// fixpoint, so non-recursive callers above it can still cache. The
// summary itself is not stored.
func (az *analyzer) finishHash(fn *ir.Func) {
	az.sumHash[fn] = canonicalize(az.sums[fn], az).Hash
}

// fenceFlags solves the may/must-fence booleans for one SCC. Must starts
// false (pessimistic: a fence we cannot prove does not remove states) and
// only rises, so the loop terminates at the least fixpoint.
func (az *analyzer) fenceFlags(scc []*ir.Func) {
	for iter := 0; iter < sccIterCap; iter++ {
		changed := false
		for _, fn := range scc {
			may := az.scanFenceMay(fn)
			must := az.fenceMustOf(fn)
			if may != az.fenceMay[fn] || must != az.fenceMust[fn] {
				changed = true
			}
			az.fenceMay[fn] = may
			az.fenceMust[fn] = must
		}
		if !changed {
			return
		}
	}
}

func (az *analyzer) scanFenceMay(fn *ir.Func) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpFence:
				return true
			case ir.OpCall:
				if !in.Callee.IsDecl() && az.fenceMay[in.Callee] {
					return true
				}
			}
		}
	}
	return false
}

// fenceMustOf runs a forward must-dataflow: does every path from entry to
// a return pass a fence (or a call whose callee must fence)? A call to
// abort_msg kills its path (the interpreter halts there), making the rest
// vacuously fenced.
func (az *analyzer) fenceMustOf(fn *ir.Func) bool {
	reach := reachableBlocks(fn)
	in := make(map[*ir.Block]bool, len(reach))
	for _, b := range reach {
		in[b] = true // top of the must-lattice
	}
	entry := fn.Entry()
	in[entry] = false

	out := func(b *ir.Block) bool {
		v := in[b]
		for _, i := range b.Instrs {
			switch i.Op {
			case ir.OpFence:
				v = true
			case ir.OpCall:
				c := i.Callee
				if c.IsDecl() {
					if c.Name == "abort_msg" {
						v = true
					}
				} else if az.fenceMust[c] {
					v = true
				}
			}
		}
		return v
	}

	work := []*ir.Block{entry}
	queued := map[*ir.Block]bool{entry: true}
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		queued[b] = false
		v := out(b)
		for _, s := range b.Terminator().Succs {
			if in[s] && !v {
				in[s] = false
				if !queued[s] {
					queued[s] = true
					work = append(work, s)
				}
			}
		}
	}

	must := true
	sawRet := false
	for _, b := range reach {
		if b.Terminator().Op == ir.OpRet {
			sawRet = true
			must = must && out(b)
		}
	}
	if !sawRet {
		return true // never returns: vacuously fenced at (nonexistent) exit
	}
	return must
}

// summaries iterates full summaries for one SCC to a fixpoint. With fence
// flags frozen, every summary component (flush effects, checkpoint chains,
// exit facts, reports) grows monotonically, so signatures converge.
func (az *analyzer) summaries(scc []*ir.Func) {
	for iter := 0; iter < sccIterCap; iter++ {
		changed := false
		for _, fn := range scc {
			fa := newFuncAnalysis(az, fn)
			fa.run()
			old := ""
			if prev := az.sums[fn]; prev != nil {
				old = prev.signature()
			}
			az.sums[fn] = fa.sum
			if fa.sum.signature() != old {
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

func reachableBlocks(fn *ir.Func) []*ir.Block {
	entry := fn.Entry()
	if entry == nil {
		return nil
	}
	seen := map[*ir.Block]bool{entry: true}
	order := []*ir.Block{entry}
	for i := 0; i < len(order); i++ {
		term := order[i].Terminator()
		if term == nil {
			continue
		}
		for _, s := range term.Succs {
			if !seen[s] {
				seen[s] = true
				order = append(order, s)
			}
		}
	}
	// Keep the function's declaration order for deterministic output.
	var out []*ir.Block
	for _, b := range fn.Blocks {
		if seen[b] {
			out = append(out, b)
		}
	}
	return out
}

// resolveRange resolves ptr to (root allocation, inclusive cache-line
// range) when the offset is a compile-time constant from a line-aligned PM
// root, mirroring the fixer's staticLine walk (including seeing through
// loads of non-escaping alloca slots).
func (az *analyzer) resolveRange(ptr ir.Value, size int64) (ir.Value, int64, int64, bool) {
	if size <= 0 {
		size = 1
	}
	offset := int64(0)
	v := ptr
	for depth := 0; depth < 32; depth++ {
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
				offset += c.Val*x.Scale + x.Disp
				v = x.Args[0]
			case ir.OpCall:
				if n := x.Callee.Name; n != "pm_alloc" && n != "pm_root" {
					return nil, 0, 0, false
				}
				return x, offset / pmem.LineSize, (offset + size - 1) / pmem.LineSize, true
			case ir.OpLoad:
				slot, ok := x.Args[0].(*ir.Instr)
				if !ok || slot.Op != ir.OpAlloca || az.slotEscapes(slot) {
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

// ResolveLine resolves ptr to its (root allocation, cache-line index)
// when ptr is a compile-time-constant offset from a line-aligned PM root
// — a standalone entry point into the resolveRange walk for passes
// outside the analyzer fixpoint. internal/optimize uses it to prove two
// flushes target the same cache line before coalescing them; two
// pointers resolve to the same line exactly when both roots and both
// indices are equal.
func ResolveLine(ptr ir.Value) (root ir.Value, line int64, ok bool) {
	az := &analyzer{escapeCache: make(map[*ir.Instr]bool)}
	r, lo, _, ok := az.resolveRange(ptr, 1)
	if !ok {
		return nil, 0, false
	}
	return r, lo, true
}

// slotEscapes reports whether an alloca's address is used anywhere other
// than as the direct target of loads and stores.
func (az *analyzer) slotEscapes(slot *ir.Instr) bool {
	if esc, ok := az.escapeCache[slot]; ok {
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
	az.escapeCache[slot] = esc
	return esc
}

// reachingSlotStore finds the same-block store a load of a non-escaping
// slot observes (nil when the definition is outside the block).
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
