// Package alias implements Andersen's inclusion-based, flow- and
// field-insensitive points-to analysis over the IR, in the role of the
// whole-program alias analysis the paper's heuristic is built on (§4.3,
// §5). Allocation sites (allocas, malloc/pm_alloc/pm_root calls, globals)
// are the abstract objects; pointer values get points-to sets over them.
// The fixer's hoisting heuristic consumes two queries: MayAlias between
// pointer values, and the PM-ness of what a pointer may reference.
package alias

import (
	"fmt"
	"sync"
	"sync/atomic"

	"hippocrates/internal/ir"
	"hippocrates/internal/lru"
)

// ObjKind classifies an abstract object by its allocation mechanism.
type ObjKind int

// The object kinds.
const (
	ObjGlobal ObjKind = iota
	ObjAlloca
	ObjHeap   // malloc
	ObjPM     // pm_alloc / pm_root
	ObjExtern // opaque memory reachable through inttoptr
)

func (k ObjKind) String() string {
	switch k {
	case ObjGlobal:
		return "global"
	case ObjAlloca:
		return "alloca"
	case ObjHeap:
		return "heap"
	case ObjPM:
		return "pm"
	case ObjExtern:
		return "extern"
	}
	return fmt.Sprintf("objkind(%d)", int(k))
}

// Object is an abstract memory object (an allocation site).
type Object struct {
	ID   int
	Kind ObjKind
	// Site is the allocating value: the *ir.Global, the alloca
	// instruction, or the allocating call instruction.
	Site ir.Value
	// Func is the containing function (nil for globals).
	Func *ir.Func
	// PM reports whether the object lives in persistent memory.
	PM bool
}

func (o *Object) String() string {
	where := "module"
	if o.Func != nil {
		where = "@" + o.Func.Name
	}
	return fmt.Sprintf("%s:%s:%s", o.Kind, where, o.Site.OperandString())
}

// Analysis holds the solved points-to relation for one module.
type Analysis struct {
	mod     *ir.Module
	objects []*Object

	// nodeOf maps pointer values to dense node IDs.
	nodeOf map[ir.Value]int
	values []ir.Value

	// pts[n] is the points-to set of value node n, as an object-ID set.
	pts []map[int]bool
	// objPts[o] is the points-to set of pointers stored inside object o.
	objPts []map[int]bool

	// constraint edges (by node IDs)
	copyEdges  map[int][]int // src -> dsts: pts(dst) ⊇ pts(src)
	loadEdges  map[int][]int // p -> dsts:   pts(dst) ⊇ pts(*p)
	storeEdges map[int][]int // p -> srcs:   pts(*p) ⊇ pts(src)

	// queries counts alias/points-to lookups since construction (atomic:
	// the fixer may consult the analysis from concurrent pipelines).
	queries atomic.Int64

	// externID is the shared opaque object's ID; retCache memoizes the
	// returned-pointer nodes per callee (the lazy returnsOf cache).
	externID int
	retCache map[*ir.Func][]int

	// refIndex resolves canonical object refs; refs and refRank cache each
	// object's canonical ref string and its lexicographic rank (all built
	// lazily together; see buildRefIndex).
	refOnce  sync.Once
	refIndex map[string]int
	refs     []string
	refRank  []int
	// digestBuf is FuncDigest's reusable encoding scratch.
	digestBuf []byte

	// consHits / consMisses count constraint-store traffic for this run.
	consHits, consMisses int

	// fps memoizes each function's content hash for this run: the alias
	// layer keys constraint lists on it and the static layer folds it into
	// summary cache keys, and sha-hashing every body twice would double an
	// otherwise-warm run's floor.
	fps map[*ir.Func]string
}

// ConsStats reports one run's constraint-store traffic.
type ConsStats struct {
	Hits, Misses int
}

// Queries returns how many alias/points-to queries have been answered
// since the analysis was built.
func (a *Analysis) Queries() int64 { return a.queries.Load() }

// Analyze builds and solves the constraint system for the module.
func Analyze(mod *ir.Module) *Analysis {
	return AnalyzeWithStore(mod, nil)
}

// AnalyzeWithStore is Analyze with a constraint cache: each function's
// canonical constraint list is fetched by body fingerprint when cached
// and generated (and stored) otherwise. The solve is always whole-module
// — a one-function edit can change any function's points-to sets — but
// the per-function generate step, the bulk of the body walking, is
// skipped for every unchanged function. A nil store generates every
// list; the result is identical either way because cold and warm runs
// share the apply step. Per-run traffic is reported by ConsStatsOf.
func AnalyzeWithStore(mod *ir.Module, store *lru.Cache[string, []Cons]) *Analysis {
	a := &Analysis{
		mod:        mod,
		nodeOf:     make(map[ir.Value]int),
		copyEdges:  make(map[int][]int),
		loadEdges:  make(map[int][]int),
		storeEdges: make(map[int][]int),
		retCache:   make(map[*ir.Func][]int),
		fps:        make(map[*ir.Func]string),
	}
	a.collect(store)
	a.solve()
	return a
}

// ConsStatsOf returns this run's constraint-store hit/miss counts (zero
// when the analysis ran without a store).
func (a *Analysis) ConsStatsOf() ConsStats {
	return ConsStats{Hits: a.consHits, Misses: a.consMisses}
}

// Fingerprint returns f's content hash, memoized for this analysis's
// lifetime. Callers must not mutate f afterwards — the memo has no way
// to notice. The incremental pipeline respects that: edits build a new
// Analysis per run.
func (a *Analysis) Fingerprint(f *ir.Func) string {
	if fp, ok := a.fps[f]; ok {
		return fp
	}
	fp := ir.FuncFingerprint(f)
	a.fps[f] = fp
	return fp
}

// node interns a pointer value. Its points-to set starts nil and is
// allocated by ptsAt on first write: most nodes never gain objects, and
// eager empty maps dominated warm incremental runs.
func (a *Analysis) node(v ir.Value) int {
	if n, ok := a.nodeOf[v]; ok {
		return n
	}
	n := len(a.values)
	a.nodeOf[v] = n
	a.values = append(a.values, v)
	a.pts = append(a.pts, nil)
	return n
}

// ptsAt returns node n's points-to set for writing, allocating it lazily.
// Read sites index a.pts directly — ranging a nil map is fine.
func (a *Analysis) ptsAt(n int) map[int]bool {
	if a.pts[n] == nil {
		a.pts[n] = make(map[int]bool, 2)
	}
	return a.pts[n]
}

func (a *Analysis) newObject(kind ObjKind, site ir.Value, fn *ir.Func, pm bool) *Object {
	o := &Object{ID: len(a.objects), Kind: kind, Site: site, Func: fn, PM: pm}
	a.objects = append(a.objects, o)
	a.objPts = append(a.objPts, make(map[int]bool))
	return o
}

func (a *Analysis) addCopy(src, dst int) {
	a.copyEdges[src] = append(a.copyEdges[src], dst)
}

// allocKind classifies a callee as an allocator.
func allocKind(name string) (ObjKind, bool) {
	switch name {
	case "malloc":
		return ObjHeap, true
	case "pm_alloc", "pm_root":
		return ObjPM, true
	}
	return 0, false
}

// collect seeds the global objects, then replays every function's
// canonical constraint list (cached by body fingerprint when a store is
// present, generated otherwise).
func (a *Analysis) collect(store *lru.Cache[string, []Cons]) {
	// Globals: the value @g points to the object g.
	for _, g := range a.mod.Globals {
		o := a.newObject(ObjGlobal, g, nil, g.PM)
		a.ptsAt(a.node(g))[o.ID] = true
	}
	// One shared opaque object for pointers materialized from integers.
	a.externID = a.newObject(ObjExtern, ir.Null(), nil, false).ID

	for _, f := range a.mod.Funcs {
		if f.IsDecl() {
			continue
		}
		var cons []Cons
		if store != nil {
			fp := a.Fingerprint(f)
			if cached, ok := store.Get(fp); ok {
				a.consHits++
				cons = cached
			} else {
				a.consMisses++
				cons = store.Add(fp, genConstraints(f))
			}
		} else {
			cons = genConstraints(f)
		}
		if err := a.applyConstraints(f, cons); err != nil {
			// A fingerprint-keyed list can only fail to resolve against a
			// body it was not generated from; regenerating from the actual
			// body cannot fail.
			a.consHits--
			a.consMisses++
			if err := a.applyConstraints(f, genConstraints(f)); err != nil {
				panic("alias: fresh constraints failed to apply: " + err.Error())
			}
		}
	}
}

// returnsOfFunc lazily collects (and caches) the nodes of pointer values
// returned by f.
func returnsOfFunc(a *Analysis, f *ir.Func, cache map[*ir.Func][]int) []int {
	if nodes, ok := cache[f]; ok {
		return nodes
	}
	var nodes []int
	if !f.IsDecl() && ir.IsPtr(f.Ret) {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpRet && len(in.Args) == 1 {
					nodes = append(nodes, a.node(in.Args[0]))
				}
			}
		}
	}
	cache[f] = nodes
	return nodes
}

// solve iterates the inclusion constraints to a fixpoint. The corpus-scale
// modules (≤ hundreds of KLOC-equivalent IR) solve in a handful of
// rounds; the harness measures this as part of Fig. 5's offline overhead.
func (a *Analysis) solve() {
	changed := true
	for changed {
		changed = false
		union := func(dst map[int]bool, src map[int]bool) {
			for o := range src {
				if !dst[o] {
					dst[o] = true
					changed = true
				}
			}
		}
		for src, dsts := range a.copyEdges {
			if len(a.pts[src]) == 0 {
				continue
			}
			for _, dst := range dsts {
				union(a.ptsAt(dst), a.pts[src])
			}
		}
		for p, dsts := range a.loadEdges {
			for o := range a.pts[p] {
				if len(a.objPts[o]) == 0 {
					continue
				}
				for _, dst := range dsts {
					union(a.ptsAt(dst), a.objPts[o])
				}
			}
		}
		for p, srcs := range a.storeEdges {
			for o := range a.pts[p] {
				for _, src := range srcs {
					if len(a.pts[src]) == 0 {
						continue
					}
					union(a.objPts[o], a.pts[src])
				}
			}
		}
	}
}

// PointsTo returns the abstract objects v may point to.
func (a *Analysis) PointsTo(v ir.Value) []*Object {
	a.queries.Add(1)
	n, ok := a.nodeOf[v]
	if !ok {
		return nil
	}
	var out []*Object
	for o := range a.pts[n] {
		out = append(out, a.objects[o])
	}
	return out
}

// MayAlias reports whether two pointer values may reference the same
// object.
func (a *Analysis) MayAlias(v, w ir.Value) bool {
	a.queries.Add(1)
	nv, ok := a.nodeOf[v]
	if !ok {
		return false
	}
	nw, ok := a.nodeOf[w]
	if !ok {
		return false
	}
	pv, pw := a.pts[nv], a.pts[nw]
	if len(pw) < len(pv) {
		pv, pw = pw, pv
	}
	for o := range pv {
		if pw[o] {
			return true
		}
	}
	return false
}

// MayPointToPM reports whether v may reference a PM object.
func (a *Analysis) MayPointToPM(v ir.Value) bool {
	a.queries.Add(1)
	n, ok := a.nodeOf[v]
	if !ok {
		return false
	}
	for o := range a.pts[n] {
		if a.objects[o].PM {
			return true
		}
	}
	return false
}

// MayPointToNonPM reports whether v may reference a volatile object.
func (a *Analysis) MayPointToNonPM(v ir.Value) bool {
	a.queries.Add(1)
	n, ok := a.nodeOf[v]
	if !ok {
		return false
	}
	for o := range a.pts[n] {
		if !a.objects[o].PM && a.objects[o].Kind != ObjExtern {
			return true
		}
	}
	return false
}

// MayPointToExtern reports whether v may reference the opaque extern
// object (memory materialized through inttoptr). Clients that need sound
// may-alias answers against PM must treat such pointers as potentially
// reaching anything: the corpus prelude's pmem_flush computes its target
// through a ptr→int→ptr round trip, so its points-to set is only extern.
func (a *Analysis) MayPointToExtern(v ir.Value) bool {
	a.queries.Add(1)
	n, ok := a.nodeOf[v]
	if !ok {
		return false
	}
	for o := range a.pts[n] {
		if a.objects[o].Kind == ObjExtern {
			return true
		}
	}
	return false
}

// PointsToSet returns the IDs of the objects v may reference and whether
// the analysis tracked v at all. An untracked value (known == false) must
// be treated as possibly pointing anywhere; a tracked value with an empty
// set provably points nowhere the module allocated.
func (a *Analysis) PointsToSet(v ir.Value) (ids []int, known bool) {
	a.queries.Add(1)
	n, ok := a.nodeOf[v]
	if !ok {
		return nil, false
	}
	for o := range a.pts[n] {
		ids = append(ids, o)
	}
	return ids, true
}

// ObjectByID returns the abstract object with the given ID.
func (a *Analysis) ObjectByID(id int) *Object {
	if id < 0 || id >= len(a.objects) {
		return nil
	}
	return a.objects[id]
}

// Pointers returns every pointer value the analysis tracked.
func (a *Analysis) Pointers() []ir.Value {
	return append([]ir.Value(nil), a.values...)
}

// Objects returns every abstract object.
func (a *Analysis) Objects() []*Object {
	return append([]*Object(nil), a.objects...)
}
