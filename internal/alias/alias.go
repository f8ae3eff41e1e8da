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
	"slices"
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

	// instrNodes and nodeOf map pointer values to dense node IDs. An
	// instruction is found by its ID in its function's table, 1 + its
	// node (0: none), whose value slot confirms it; every other value,
	// and an instruction whose ID is out of range or taken by another
	// (overflow records that one was), is in nodeOf. lastFn and lastTab
	// cache the table node was last given, while constraints apply.
	instrNodes map[*ir.Func][]int32
	overflow   bool
	lastFn     *ir.Func
	lastTab    []int32
	nodeOf     map[ir.Value]int
	values     []ir.Value

	// pts[n] is the points-to set of value node n.
	pts []idSet
	// objPts[o] is the points-to set of pointers stored inside object o.
	objPts []idSet
	// setChunk is where empty sets take their first slots (see add).
	setChunk []int32
	// byID is applyConstraints' per-function instruction table.
	byID []*ir.Instr

	// constraint edges as (from, to) node pairs
	copyEdges  []edge // src -> dst: pts(dst) ⊇ pts(src)
	loadEdges  []edge // p -> dst:   pts(dst) ⊇ pts(*p)
	storeEdges []edge // p -> src:   pts(*p) ⊇ pts(src)

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
		mod:      mod,
		nodeOf:   make(map[ir.Value]int),
		retCache: make(map[*ir.Func][]int),
		fps:      make(map[*ir.Func]string),
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

// node interns a pointer value with an empty points-to set.
func (a *Analysis) node(v ir.Value) int {
	if n, ok := a.lookup(v); ok {
		return n
	}
	n := len(a.values)
	a.values = append(a.values, v)
	a.pts = append(a.pts, nil)
	if in, ok := v.(*ir.Instr); ok && in.Block() != nil {
		if fn := in.Block().Func(); fn != a.lastFn {
			a.lastFn, a.lastTab = fn, a.instrNodes[fn]
			if a.lastTab == nil {
				a.lastTab = make([]int32, fn.NumInstrs())
				a.instrNodes[fn] = a.lastTab
			}
		}
		if in.ID >= 0 && int(in.ID) < len(a.lastTab) && a.lastTab[in.ID] == 0 {
			a.lastTab[in.ID] = int32(n) + 1
			return n
		}
		a.overflow = true
	}
	a.nodeOf[v] = n
	return n
}

// seed adds object o to v's points-to set. The node is interned first,
// apart from the set it grows: interning can move a.pts.
func (a *Analysis) seed(v ir.Value, o int) {
	n := a.node(v)
	a.add(&a.pts[n], int32(o))
}

// lookup returns v's node, if it has one.
func (a *Analysis) lookup(v ir.Value) (int, bool) {
	if in, ok := v.(*ir.Instr); ok && in.Block() != nil {
		if tab := a.instrNodes[in.Block().Func()]; in.ID >= 0 && int(in.ID) < len(tab) {
			if n := tab[in.ID]; n != 0 && a.values[n-1] == v {
				return int(n - 1), true
			}
		}
		if !a.overflow {
			return 0, false
		}
	}
	n, ok := a.nodeOf[v]
	return n, ok
}

// idSet is a sorted set of object IDs. Points-to sets are small (most
// hold one object), so a sorted slice beats a map in both space and time.
type idSet []int32

func (s idSet) has(o int32) bool {
	_, found := slices.BinarySearch(s, o)
	return found
}

// add inserts o into *s and reports whether the set grew. An empty set
// takes its first two slots from a shared chunk: most sets never grow
// past one object, and an allocation per set dominated the solve.
func (a *Analysis) add(s *idSet, o int32) bool {
	i, found := slices.BinarySearch(*s, o)
	if found {
		return false
	}
	if cap(*s) == 0 {
		if len(a.setChunk) < 2 {
			a.setChunk = make([]int32, 1024)
		}
		*s, a.setChunk = a.setChunk[:0:2], a.setChunk[2:]
	}
	*s = slices.Insert(*s, i, o)
	return true
}

// union adds every ID of src to *s and reports whether the set grew.
func (a *Analysis) union(s *idSet, src idSet) bool {
	changed := false
	for _, o := range src {
		if a.add(s, o) {
			changed = true
		}
	}
	return changed
}

func (a *Analysis) newObject(kind ObjKind, site ir.Value, fn *ir.Func, pm bool) *Object {
	o := &Object{ID: len(a.objects), Kind: kind, Site: site, Func: fn, PM: pm}
	a.objects = append(a.objects, o)
	a.objPts = append(a.objPts, nil)
	return o
}

// edge is one constraint edge between two nodes.
type edge struct{ from, to int32 }

func (a *Analysis) addCopy(src, dst int) {
	a.copyEdges = append(a.copyEdges, edge{int32(src), int32(dst)})
}

// adjacency is a compressed edge list: the targets of node n are
// to[start[n]:start[n+1]].
type adjacency struct {
	start []int32
	to    []int32
}

func newAdjacency(nodes int, edges []edge, reverse bool) adjacency {
	adj := adjacency{start: make([]int32, nodes+1), to: make([]int32, len(edges))}
	for _, e := range edges {
		if reverse {
			e.from = e.to
		}
		adj.start[e.from+1]++
	}
	for n := 0; n < nodes; n++ {
		adj.start[n+1] += adj.start[n]
	}
	fill := slices.Clone(adj.start[:nodes])
	for _, e := range edges {
		if reverse {
			e.from, e.to = e.to, e.from
		}
		adj.to[fill[e.from]] = e.to
		fill[e.from]++
	}
	return adj
}

func (adj adjacency) of(n int32) []int32 { return adj.to[adj.start[n]:adj.start[n+1]] }

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
	lists := make([][]Cons, len(a.mod.Funcs))
	total := 0
	for i, f := range a.mod.Funcs {
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
		lists[i] = cons
		total += len(cons)
	}
	// A constraint names at most two values, most of them shared, so the
	// constraint count sizes the node tables and edge lists.
	a.instrNodes = make(map[*ir.Func][]int32, len(a.mod.Funcs))
	a.values = make([]ir.Value, 0, total)
	a.pts = make([]idSet, 0, total)
	a.copyEdges = make([]edge, 0, total)

	// Globals: the value @g points to the object g.
	for _, g := range a.mod.Globals {
		o := a.newObject(ObjGlobal, g, nil, g.PM)
		a.seed(g, o.ID)
	}
	// One shared opaque object for pointers materialized from integers.
	a.externID = a.newObject(ObjExtern, ir.Null(), nil, false).ID

	for i, f := range a.mod.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := a.applyConstraints(f, lists[i]); err != nil {
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

// solve computes the least solution of the inclusion constraints with a
// worklist: a node is revisited only after its points-to set grows, and a
// stored-into object pushes only the loads known to read it.
func (a *Analysis) solve() {
	nodes := len(a.values)
	copies := newAdjacency(nodes, a.copyEdges, false)
	loads := newAdjacency(nodes, a.loadEdges, false)    // p -> dsts
	stores := newAdjacency(nodes, a.storeEdges, false)  // p -> srcs
	storedBy := newAdjacency(nodes, a.storeEdges, true) // src -> ps
	// readers[o] are the load destinations whose pointer may point to o.
	readers := make([]map[int32]bool, len(a.objects))

	queued := make([]bool, nodes)
	var work []int32
	push := func(n int32) {
		if !queued[n] {
			queued[n] = true
			work = append(work, n)
		}
	}
	// storeInto folds src's set into object o and passes what changed on
	// to o's readers.
	storeInto := func(o int32, src idSet) {
		if a.union(&a.objPts[o], src) {
			for dst := range readers[o] {
				if a.union(&a.pts[dst], a.objPts[o]) {
					push(dst)
				}
			}
		}
	}
	for n := range a.pts {
		if len(a.pts[n]) > 0 {
			push(int32(n))
		}
	}
	// Each loop below reads a.pts[n] afresh: storing into an object can
	// grow n's own set, and n is then queued to run again.
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		queued[n] = false
		for _, dst := range copies.of(n) {
			if a.union(&a.pts[dst], a.pts[n]) {
				push(dst)
			}
		}
		if dsts := loads.of(n); len(dsts) > 0 {
			for _, o := range a.pts[n] {
				if readers[o] == nil {
					readers[o] = make(map[int32]bool)
				}
				for _, dst := range dsts {
					readers[o][dst] = true
					if a.union(&a.pts[dst], a.objPts[o]) {
						push(dst)
					}
				}
			}
		}
		for _, src := range stores.of(n) {
			for _, o := range a.pts[n] {
				storeInto(o, a.pts[src])
			}
		}
		for _, p := range storedBy.of(n) {
			for _, o := range a.pts[p] {
				storeInto(o, a.pts[n])
			}
		}
	}
}

// PointsTo returns the abstract objects v may point to.
func (a *Analysis) PointsTo(v ir.Value) []*Object {
	a.queries.Add(1)
	n, ok := a.lookup(v)
	if !ok {
		return nil
	}
	var out []*Object
	for _, o := range a.pts[n] {
		out = append(out, a.objects[o])
	}
	return out
}

// MayAlias reports whether two pointer values may reference the same
// object.
func (a *Analysis) MayAlias(v, w ir.Value) bool {
	a.queries.Add(1)
	nv, ok := a.lookup(v)
	if !ok {
		return false
	}
	nw, ok := a.lookup(w)
	if !ok {
		return false
	}
	pw := a.pts[nw]
	for _, o := range a.pts[nv] {
		if pw.has(o) {
			return true
		}
	}
	return false
}

// MayPointToPM reports whether v may reference a PM object.
func (a *Analysis) MayPointToPM(v ir.Value) bool {
	a.queries.Add(1)
	n, ok := a.lookup(v)
	if !ok {
		return false
	}
	for _, o := range a.pts[n] {
		if a.objects[o].PM {
			return true
		}
	}
	return false
}

// MayPointToNonPM reports whether v may reference a volatile object.
func (a *Analysis) MayPointToNonPM(v ir.Value) bool {
	a.queries.Add(1)
	n, ok := a.lookup(v)
	if !ok {
		return false
	}
	for _, o := range a.pts[n] {
		if !a.objects[o].PM && a.objects[o].Kind != ObjExtern {
			return true
		}
	}
	return false
}

// PointsToSet returns the IDs of the objects v may reference, in
// ascending order, and whether the analysis tracked v at all. An
// untracked value (known == false) must be treated as possibly pointing
// anywhere; a tracked value with an empty set provably points nowhere the
// module allocated. The slice is the analysis's own and must not be
// modified.
func (a *Analysis) PointsToSet(v ir.Value) (ids []int32, known bool) {
	a.queries.Add(1)
	n, ok := a.lookup(v)
	if !ok {
		return nil, false
	}
	return a.pts[n][:len(a.pts[n]):len(a.pts[n])], true
}

// ObjectByID returns the abstract object with the given ID.
func (a *Analysis) ObjectByID(id int) *Object {
	if id < 0 || id >= len(a.objects) {
		return nil
	}
	return a.objects[id]
}

// Pointers returns every pointer value the analysis tracked. The slice
// is the analysis's own and must not be modified; an append to it never
// reaches the analysis.
func (a *Analysis) Pointers() []ir.Value {
	return a.values[:len(a.values):len(a.values)]
}

// Objects returns every abstract object.
func (a *Analysis) Objects() []*Object {
	return append([]*Object(nil), a.objects...)
}
