package static

import (
	"fmt"
	"slices"
	"strings"

	"hippocrates/internal/ir"
)

// summary is the bottom-up interprocedural abstraction of one function:
// everything a caller must know to push its own facts through a call and
// to adopt the callee's still-undurable stores.
type summary struct {
	fn *ir.Func

	// fenceMay: some path through the function may execute a fence.
	// fenceMust: every path from entry to return executes a fence (directly
	// or through a callee whose fenceMust holds). A must-fence removes the
	// dirty-unfenced possibility from every caller fact; a may-fence only
	// widens the possible-state set.
	fenceMay  bool
	fenceMust bool

	// flushes are the weakly-ordered flush effects visible to callers (own
	// flushes, flush_range calls, and inherited callee effects). Strongly
	// ordered CLFLUSHes are omitted: through a call they are only a may-
	// commit, which cannot add a state a caller must track.
	flushes []*flushEffect
	// flushSeen is the set of flushes' sites, by frame ID.
	flushSeen []uint64

	// ckpts are the relative call chains (innermost first, ending at this
	// function's frame-producing call) to every reachable durability point.
	ckpts chainSet

	// facts are the function's facts by id, and exit their state sets
	// still possibly undurable at return, merged over all returns.
	facts []*fact
	exit  factState

	// reports are durability violations rooted at this function's facts,
	// with relative stacks, in the order they were first seen; they
	// become absolute when instantiated up the call graph to the entry.
	// reportOf indexes them by chain.
	reports  []*report
	reportOf map[chainID]*report

	// lints are function-local performance diagnostics. They are emitted
	// for every function and filtered against caller contexts (calls,
	// below) after the bottom-up pass.
	lints []*Lint

	// calls records, per defined callee, the join over this function's
	// call sites of the caller-visible persistency context: whether some
	// live fact may be dirty (or dirty-fenced) or flushed at the call.
	// The top-down context pass of the analysis propagates these entry-down to
	// decide which callee lints no caller context can revive.
	calls map[*ir.Func]callCtx

	// snap, when set, is the stored snapshot this summary replays, whose
	// flow parts are not built yet (see replay).
	snap *FuncSummary
}

// callCtx is the caller-side persistency context observed at a call: may
// any live fact be dirty/dirty-fenced, may any be flushed (awaiting a
// fence)? Bits only rise; over-approximating true suppresses lints, which
// is the sound direction.
type callCtx struct {
	dirty   bool
	flushed bool
}

func (c callCtx) or(o callCtx) callCtx {
	return callCtx{dirty: c.dirty || o.dirty, flushed: c.flushed || o.flushed}
}

// flushEffect is one may-flush a caller observes through a call. Callers
// share their callees' effects, so canon, the effect's portable form, is
// built once however many summaries inherit it; a replayed effect starts
// with its snapshot's. site is the flush's interned frame, or -1 until a
// caller first needs it: most replayed summaries are never read through a
// call.
type flushEffect struct {
	objs  objSet
	all   bool
	site  int32
	canon *PFlushEffect
}

// covers reports whether the effect may cover the fact's cache line(s).
func (fe *flushEffect) covers(f *fact) bool {
	return fe.all || f.anyObj || fe.objs.intersects(f.objs)
}

// report accumulates the violations of one fact (one store site reached
// through one call chain), with mechanism flags unioned across durability
// points exactly as the dynamic detector unions bug classes per (site,
// stack).
type report struct {
	chain      chainID
	op         ir.Op
	size       int64
	nt         bool
	needFlush  bool
	needFence  bool
	ckpts      chainSet
	flushSites siteSet
}

func newSummary(fn *ir.Func) *summary {
	return &summary{fn: fn, calls: make(map[*ir.Func]callCtx)}
}

func (s *summary) mergeCallCtx(callee *ir.Func, c callCtx) {
	s.calls[callee] = s.calls[callee].or(c)
}

func (s *summary) addFlushEffect(ct *chainTable, fe *flushEffect) {
	site := ct.siteOf(fe)
	w, bit := int(site>>6), uint64(1)<<(site&63)
	if w >= len(s.flushSeen) {
		s.flushSeen = append(s.flushSeen, make([]uint64, w+1-len(s.flushSeen))...)
	}
	if s.flushSeen[w]&bit == 0 {
		s.flushSeen[w] |= bit
		s.flushes = append(s.flushes, fe)
	}
}

// reportFor returns the report of the given chain, creating it for a store
// of the given shape.
func (s *summary) reportFor(chain chainID, op ir.Op, size int64, nt bool) *report {
	r := s.reportOf[chain]
	if r == nil {
		r = &report{chain: chain, op: op, size: size, nt: nt}
		if s.reportOf == nil {
			s.reportOf = make(map[chainID]*report)
		}
		s.reportOf[chain] = r
		s.reports = append(s.reports, r)
	}
	return r
}

// mergeReport folds one observation (fact f in states bits at the given
// relative checkpoint chain) into the summary's reports.
func (s *summary) mergeReport(f *fact, bits stateBits, ckpt chainID) {
	if bits == 0 {
		return
	}
	r := s.reportFor(f.chain, f.op, f.size, f.nt)
	n := bits.needs()
	r.needFlush = r.needFlush || n.Flush
	r.needFence = r.needFence || n.Fence
	r.ckpts.add(ckpt)
	r.flushSites = r.flushSites.union(f.flushSites)
}

// signature fingerprints the summary for SCC fixpoint detection: it covers
// every field that can influence callers.
func (s *summary) signature(ct *chainTable) string {
	var b strings.Builder
	fmt.Fprintf(&b, "may=%v must=%v;", s.fenceMay, s.fenceMust)
	sites := make([]string, 0, len(s.flushes))
	for _, fe := range s.flushes {
		site := ct.frames[ct.siteOf(fe)]
		sites = append(sites, fmt.Sprintf("%s@%d/%v/%d", site.Func, site.InstrID, fe.all, len(fe.objs)))
	}
	slices.Sort(sites)
	b.WriteString(strings.Join(sites, ","))
	b.WriteByte(';')
	keys := make([]string, 0, len(s.ckpts))
	for _, c := range s.ckpts {
		keys = append(keys, ct.key(c))
	}
	slices.Sort(keys)
	b.WriteString(strings.Join(keys, ","))
	b.WriteByte(';')
	var exits []string
	s.exit.each(func(id int32, bits stateBits) {
		f := s.facts[id]
		exits = append(exits, fmt.Sprintf("%s=%d/%d", ct.key(f.chain), bits, len(f.flushSites)))
	})
	slices.Sort(exits)
	b.WriteString(strings.Join(exits, ","))
	b.WriteByte(';')
	reps := make([]string, 0, len(s.reports))
	for _, r := range s.reports {
		reps = append(reps, fmt.Sprintf("%s=%v/%v/%d/%d", ct.key(r.chain), r.needFlush, r.needFence, len(r.ckpts), len(r.flushSites)))
	}
	slices.Sort(reps)
	b.WriteString(strings.Join(reps, ","))
	return b.String()
}

// callGraph builds the defined-function call graph restricted to functions
// reachable from entry. Calls are direct (the IR has no indirect calls), so
// the graph is exact. Spawn edges are included: a spawned function is
// reachable and needs a summary, even though the caller's flow never
// applies it (the spawnee runs on another thread — see transfer); spawns
// reports whether there is one.
func callGraph(entry *ir.Func) (nodes []*ir.Func, succs map[*ir.Func][]*ir.Func, spawns bool) {
	succs = make(map[*ir.Func][]*ir.Func)
	seen := map[*ir.Func]bool{entry: true}
	work := []*ir.Func{entry}
	for len(work) > 0 {
		fn := work[len(work)-1]
		work = work[:len(work)-1]
		nodes = append(nodes, fn)
		var out []*ir.Func
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				spawns = spawns || in.Op == ir.OpSpawn
				if in.Op != ir.OpCall && in.Op != ir.OpSpawn {
					continue
				}
				callee := in.Callee()
				if callee.IsDecl() || slices.Contains(out, callee) {
					continue
				}
				out = append(out, callee)
				if !seen[callee] {
					seen[callee] = true
					work = append(work, callee)
				}
			}
		}
		succs[fn] = out
	}
	return nodes, succs, spawns
}

// sccOrder returns the strongly connected components of the call graph in
// reverse topological order (callees before callers), via Tarjan's
// algorithm (iterative to keep deep call chains off the Go stack).
func sccOrder(nodes []*ir.Func, succs map[*ir.Func][]*ir.Func) [][]*ir.Func {
	index := make(map[*ir.Func]int)
	low := make(map[*ir.Func]int)
	onStack := make(map[*ir.Func]bool)
	var stack []*ir.Func
	var sccs [][]*ir.Func
	next := 0

	type frame struct {
		fn *ir.Func
		i  int
	}
	for _, root := range nodes {
		if _, ok := index[root]; ok {
			continue
		}
		work := []frame{{fn: root}}
		for len(work) > 0 {
			fr := &work[len(work)-1]
			fn := fr.fn
			if fr.i == 0 {
				index[fn] = next
				low[fn] = next
				next++
				stack = append(stack, fn)
				onStack[fn] = true
			}
			advanced := false
			for fr.i < len(succs[fn]) {
				w := succs[fn][fr.i]
				fr.i++
				if _, ok := index[w]; !ok {
					work = append(work, frame{fn: w})
					advanced = true
					break
				}
				if onStack[w] && index[w] < low[fn] {
					low[fn] = index[w]
				}
			}
			if advanced {
				continue
			}
			// fn is done.
			work = work[:len(work)-1]
			if len(work) > 0 {
				parent := work[len(work)-1].fn
				if low[fn] < low[parent] {
					low[parent] = low[fn]
				}
			}
			if low[fn] == index[fn] {
				var scc []*ir.Func
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					scc = append(scc, w)
					if w == fn {
						break
					}
				}
				sccs = append(sccs, scc)
			}
		}
	}
	return sccs
}
