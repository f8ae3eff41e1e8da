package static

import (
	"crypto/sha256"
	"encoding/hex"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/lru"
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
	// invalidation transitive without any explicit tracking). A run
	// without a store builds no key, so it neither canonicalizes nor
	// hashes a summary.
	store     *lru.Cache[string, *FuncSummary]
	sumHash   map[*ir.Func]string
	sumHits   int
	sumMisses int
	// chains interns this run's frames and call chains; pts caches each
	// pointer's points-to answer.
	chains *chainTable
	pts    map[ir.Value]ptsInfo
	// objsCache interns resolved object-ID sets by their canonical refs
	// key. Object sets are never mutated, and one points-to set recurs
	// across most facts of a function, so warm runs share one set per
	// distinct refs list instead of allocating thousands.
	objsCache map[string]objSet
	// instrIdx is instrByID's per-function dense ID index.
	instrIdx map[*ir.Func][]*ir.Instr

	sums      map[*ir.Func]*summary
	fenceMay  map[*ir.Func]bool
	fenceMust map[*ir.Func]bool

	// lines resolves pointers to PM cache lines for store facts, flush
	// coverage and address comparison.
	lines LineResolver
	// threaded: a function reachable from the entry spawns a thread.
	threaded bool
}

// sccIterCap bounds fixpoint rounds inside one recursive SCC; summaries
// grow monotonically over a finite lattice, so this is a safety valve, not
// a precision knob.
const sccIterCap = 32

// summaryOf returns fn's summary for a caller to read, replaying its flow
// parts first if it came from the store.
func (az *analyzer) summaryOf(fn *ir.Func) *summary {
	if s := az.sums[fn]; s != nil {
		if s.snap != nil {
			az.replay(s, true)
		}
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
	nodes, succs, spawns := callGraph(az.entry)
	az.threaded = spawns
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
	if az.store != nil {
		ps := canonicalize(fa.sum, az)
		az.sumHash[fn] = ps.Hash
		az.store.Add(key, ps)
	}
}

// finishHash assigns a recursive function's summary hash after its SCC
// fixpoint, so non-recursive callers above it can still cache. The
// summary itself is not stored. Without a store no key is built, so no
// hash is needed.
func (az *analyzer) finishHash(fn *ir.Func) {
	if az.store != nil {
		az.sumHash[fn] = canonicalize(az.sums[fn], az).Hash
	}
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
				if callee := in.Callee(); !callee.IsDecl() && az.fenceMay[callee] {
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
				c := i.Callee()
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
		for _, s := range b.Terminator().Succs() {
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
				old = prev.signature(az.chains)
			}
			az.sums[fn] = fa.sum
			if fa.sum.signature(az.chains) != old {
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
		for _, s := range order[i].Terminator().Succs() {
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
