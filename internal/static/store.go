// The summary store: canonical, module-independent snapshots of function
// summaries, keyed by content hash. A summary is canonicalized eagerly at
// put time (deep conversion into portable structs, never sharing mutable
// maps with the live analysis), and instantiated back into fresh live
// structs on every hit — so cached state can never leak mutations between
// runs, and concurrent jobs can replay the same entry safely.
//
// Portability rests on three canonical namings:
//   - call chains and sites are trace.Frames (function name + instruction
//     ID + source location), already module-independent;
//   - alias objects are named by alias.(*Analysis).ObjectRef — globals by
//     name, allocation sites by (function, instruction ID) — and resolved
//     back per run with ObjectIDByRef;
//   - IR values (a fact's resolved line root) are named by pVal: a global
//     by name or an instruction by (function, ID).
//
// Any name that fails to resolve against the current module turns the hit
// into a miss; with keys derived from body fingerprints this cannot
// happen, but the failure mode is a recompute, never a wrong answer.
package static

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/lru"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// pVal names an ir.Value across modules: a global by name, an instruction
// by (function, ID). The zero pVal names nil.
type pVal struct {
	Global string
	Func   string
	ID     int
}

// PFlushEffect is the portable flushEffect.
type PFlushEffect struct {
	Objs []string // canonical object refs, sorted
	All  bool
	Site trace.Frame
	// objsKey joins Objs for the analyzer's resolved-set intern cache,
	// precomputed so warm instantiation allocates nothing per lookup.
	objsKey string
}

// PFact is the portable form of one exit fact plus its state bits. The
// live fact's ptr/def fields are dropped: both are only consulted for
// facts created in the function under analysis, never for facts adopted
// through a call, and instantiated summaries are only ever read through
// calls.
type PFact struct {
	Stack          []trace.Frame
	Op             ir.Op
	Size           int64
	NT             bool
	Objs           []string // canonical object refs, sorted
	AnyObj         bool
	LineOK         bool
	Root           pVal
	LineLo, LineHi int64
	FlushSites     []trace.Frame // sorted by (func, instr)
	Bits           stateBits
	// key is Stack's stackKey and objsKey joins Objs for the resolved-set
	// intern cache, both precomputed at canonicalize time so warm
	// instantiation does not rebuild them. Derived, excluded from the hash.
	key     string
	objsKey string
}

// PReport is the portable report.
type PReport struct {
	Stack      []trace.Frame
	Op         ir.Op
	Size       int64
	NT         bool
	NeedFlush  bool
	NeedFence  bool
	Ckpts      [][]trace.Frame // sorted by stackKey
	FlushSites []trace.Frame   // sorted by (func, instr)
	// key and ckptKeys precompute Stack's and each Ckpts chain's stackKey.
	key      string
	ckptKeys []string
}

// PLint is the portable lint, including the caller-context conditions the
// top-down pass filters on.
type PLint struct {
	Kind             LintKind
	Site             trace.Frame
	Block            string
	NeedNoDirtyCtx   bool
	NeedNoFlushedCtx bool
}

// PCallCtx is the portable per-callee caller context.
type PCallCtx struct {
	Callee  string
	Dirty   bool
	Flushed bool
}

// FuncSummary is the canonical, immutable snapshot of one function
// summary. Hash is the content hash of the whole encoding — callers chain
// it into their own cache keys.
type FuncSummary struct {
	Fn        string
	FenceMay  bool
	FenceMust bool
	Flushes   []PFlushEffect  // in emit order (deterministic)
	Ckpts     [][]trace.Frame // sorted by stackKey
	Exit      []PFact         // sorted by stack key
	Reports   []PReport       // sorted by stack key
	Lints     []PLint         // in emit order (deterministic)
	Calls     []PCallCtx      // sorted by callee name
	Hash      string
	// ckptKeys precomputes each Ckpts chain's stackKey (same order).
	ckptKeys []string
}

// refsOf renders an object-ID set in canonical sorted form.
func refsOf(an *alias.Analysis, objs map[int]bool) []string {
	if len(objs) == 0 {
		return nil
	}
	out := make([]string, 0, len(objs))
	for id := range objs {
		out = append(out, an.ObjectRef(id))
	}
	sort.Strings(out)
	return out
}

// objsKeyOf joins a sorted canonical ref list into the intern-cache key
// used by objsFromRefs; canonicalize precomputes it per snapshot entry.
func objsKeyOf(refs []string) string {
	n := 0
	for _, r := range refs {
		n += len(r) + 1
	}
	kb := make([]byte, 0, n)
	for _, r := range refs {
		kb = append(kb, r...)
		kb = append(kb, 0x1f)
	}
	return string(kb)
}

// objsFromRefs resolves a canonical sorted ref list to this run's object
// IDs. Resolved sets are interned on the analyzer under the precomputed
// key (refs lists are sorted, so equal sets have equal keys); callers
// treat the returned map as read-only, which every fact and flush effect
// already does.
func objsFromRefs(az *analyzer, refs []string, key string) (map[int]bool, bool) {
	if len(refs) == 0 {
		return map[int]bool{}, true
	}
	if m, ok := az.objsCache[key]; ok {
		return m, true
	}
	m := make(map[int]bool, len(refs))
	for _, r := range refs {
		id, ok := az.an.ObjectIDByRef(r)
		if !ok {
			return nil, false
		}
		m[id] = true
	}
	if az.objsCache == nil {
		az.objsCache = make(map[string]map[int]bool)
	}
	az.objsCache[key] = m
	return m, true
}

func pvalOf(v ir.Value) (pVal, bool) {
	switch x := v.(type) {
	case nil:
		return pVal{}, true
	case *ir.Global:
		return pVal{Global: x.Name}, true
	case *ir.Instr:
		return pVal{Func: x.Block().Func().Name, ID: x.ID}, true
	}
	return pVal{}, false
}

func resolveVal(az *analyzer, p pVal) (ir.Value, bool) {
	switch {
	case p.Global != "":
		if g := az.mod.Global(p.Global); g != nil {
			return g, true
		}
		return nil, false
	case p.Func != "":
		fn := az.mod.Func(p.Func)
		if fn == nil || fn.IsDecl() {
			return nil, false
		}
		if in := az.instrByID(fn, p.ID); in != nil {
			return in, true
		}
		return nil, false
	}
	return nil, true
}

// instrByID is InstrByID behind a per-function dense index, built once
// per run: warm instantiation resolves one fact root per exit fact and a
// linear scan each dominated it.
func (az *analyzer) instrByID(fn *ir.Func, id int) *ir.Instr {
	idx, ok := az.instrIdx[fn]
	if !ok {
		maxID := -1
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.ID > maxID {
					maxID = in.ID
				}
			}
		}
		idx = make([]*ir.Instr, maxID+1)
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if in.ID >= 0 {
					idx[in.ID] = in
				}
			}
		}
		if az.instrIdx == nil {
			az.instrIdx = make(map[*ir.Func][]*ir.Instr)
		}
		az.instrIdx[fn] = idx
	}
	if id < 0 || id >= len(idx) {
		return nil
	}
	return idx[id]
}

func sortFrames(frames []trace.Frame) {
	sort.Slice(frames, func(i, j int) bool {
		if frames[i].Func != frames[j].Func {
			return frames[i].Func < frames[j].Func
		}
		return frames[i].InstrID < frames[j].InstrID
	})
}

func siteList(m map[pmcheck.SiteKey]trace.Frame) []trace.Frame {
	out := make([]trace.Frame, 0, len(m))
	for _, fr := range m {
		out = append(out, fr)
	}
	sortFrames(out)
	return out
}

func siteMap(frames []trace.Frame) map[pmcheck.SiteKey]trace.Frame {
	m := make(map[pmcheck.SiteKey]trace.Frame, len(frames))
	for _, fr := range frames {
		m[pmcheck.SiteKey{Func: fr.Func, InstrID: fr.InstrID}] = fr
	}
	return m
}

func chainList(m map[string][]trace.Frame) ([][]trace.Frame, []string) {
	if len(m) == 0 {
		return nil, nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([][]trace.Frame, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out, keys
}

// canonicalize deep-converts a finished live summary into its portable
// snapshot and computes the content hash. Map-shaped fields are sorted so
// the encoding (and so the hash) is deterministic. Returns nil when some
// value cannot be named canonically; callers then fall back to a
// per-run-unique hash, disabling caching above this function.
func canonicalize(s *summary, az *analyzer) *FuncSummary {
	ps := &FuncSummary{
		Fn:        s.fn.Name,
		FenceMay:  s.fenceMay,
		FenceMust: s.fenceMust,
	}
	for _, fe := range s.flushes {
		refs := refsOf(az.an, fe.objs)
		ps.Flushes = append(ps.Flushes, PFlushEffect{
			Objs:    refs,
			All:     fe.all,
			Site:    fe.site,
			objsKey: objsKeyOf(refs),
		})
	}
	ps.Ckpts, ps.ckptKeys = chainList(s.ckpts)

	exitKeys := make([]string, 0, len(s.exit))
	byKey := make(map[string]*fact, len(s.exit))
	for f := range s.exit {
		exitKeys = append(exitKeys, f.key)
		byKey[f.key] = f
	}
	sort.Strings(exitKeys)
	for _, k := range exitKeys {
		f := byKey[k]
		root, ok := pvalOf(f.root)
		if !ok {
			return nil
		}
		refs := refsOf(az.an, f.objs)
		ps.Exit = append(ps.Exit, PFact{
			Stack:      f.stack,
			Op:         f.op,
			Size:       f.size,
			NT:         f.nt,
			Objs:       refs,
			AnyObj:     f.anyObj,
			LineOK:     f.lineOK,
			Root:       root,
			LineLo:     f.lineLo,
			LineHi:     f.lineHi,
			FlushSites: siteList(f.flushSites),
			Bits:       s.exit[f],
			key:        k,
			objsKey:    objsKeyOf(refs),
		})
	}

	repKeys := make([]string, 0, len(s.reports))
	for k := range s.reports {
		repKeys = append(repKeys, k)
	}
	sort.Strings(repKeys)
	for _, k := range repKeys {
		r := s.reports[k]
		chains, chainKeys := chainList(r.ckpts)
		ps.Reports = append(ps.Reports, PReport{
			Stack:      r.stack,
			Op:         r.op,
			Size:       r.size,
			NT:         r.nt,
			NeedFlush:  r.needFlush,
			NeedFence:  r.needFence,
			Ckpts:      chains,
			FlushSites: siteList(r.flushSites),
			key:        k,
			ckptKeys:   chainKeys,
		})
	}

	for _, l := range s.lints {
		ps.Lints = append(ps.Lints, PLint{
			Kind:             l.Kind,
			Site:             l.Site,
			Block:            l.Block,
			NeedNoDirtyCtx:   l.needNoDirtyCtx,
			NeedNoFlushedCtx: l.needNoFlushedCtx,
		})
	}

	callNames := make([]string, 0, len(s.calls))
	ctxByName := make(map[string]callCtx, len(s.calls))
	for callee, c := range s.calls {
		callNames = append(callNames, callee.Name)
		ctxByName[callee.Name] = c
	}
	sort.Strings(callNames)
	for _, n := range callNames {
		c := ctxByName[n]
		ps.Calls = append(ps.Calls, PCallCtx{Callee: n, Dirty: c.dirty, Flushed: c.flushed})
	}

	ps.Hash = ps.contentHash()
	return ps
}

// instantiate rebuilds a live summary from a snapshot, resolving every
// canonical name against the current module and alias analysis. All
// returned structs (facts, reports, lints, maps) are freshly allocated;
// frame slices are shared read-only with the snapshot (nothing in the
// analysis mutates a chain in place — extension always copies). Returns
// nil when any name fails to resolve.
func instantiate(ps *FuncSummary, fn *ir.Func, az *analyzer) *summary {
	s := newSummary(fn)
	s.fenceMay = ps.FenceMay
	s.fenceMust = ps.FenceMust
	s.flushes = make([]flushEffect, 0, len(ps.Flushes))
	for i := range ps.Flushes {
		pfe := &ps.Flushes[i]
		objs, ok := objsFromRefs(az, pfe.Objs, pfe.objsKey)
		if !ok {
			return nil
		}
		s.flushes = append(s.flushes, flushEffect{objs: objs, all: pfe.All, site: pfe.Site})
	}
	for i, chain := range ps.Ckpts {
		s.ckpts[ps.ckptKeys[i]] = chain
	}
	facts := make([]fact, len(ps.Exit))
	for i := range ps.Exit {
		pf := &ps.Exit[i]
		objs, ok := objsFromRefs(az, pf.Objs, pf.objsKey)
		if !ok {
			return nil
		}
		root, ok := resolveVal(az, pf.Root)
		if !ok {
			return nil
		}
		facts[i] = fact{
			id:         i,
			stack:      pf.Stack,
			key:        pf.key,
			op:         pf.Op,
			size:       pf.Size,
			nt:         pf.NT,
			objs:       objs,
			anyObj:     pf.AnyObj,
			lineOK:     pf.LineOK,
			root:       root,
			lineLo:     pf.LineLo,
			lineHi:     pf.LineHi,
			flushSites: siteMap(pf.FlushSites),
		}
		s.exit[&facts[i]] = pf.Bits
	}
	for i := range ps.Reports {
		pr := &ps.Reports[i]
		r := &report{
			stack:      pr.Stack,
			op:         pr.Op,
			size:       pr.Size,
			nt:         pr.NT,
			needFlush:  pr.NeedFlush,
			needFence:  pr.NeedFence,
			ckpts:      make(map[string][]trace.Frame, len(pr.Ckpts)),
			flushSites: siteMap(pr.FlushSites),
		}
		for j, chain := range pr.Ckpts {
			r.ckpts[pr.ckptKeys[j]] = chain
		}
		s.reports[pr.key] = r
	}
	for i := range ps.Lints {
		pl := &ps.Lints[i]
		s.lints = append(s.lints, &Lint{
			Kind: pl.Kind, Site: pl.Site, Block: pl.Block,
			needNoDirtyCtx: pl.NeedNoDirtyCtx, needNoFlushedCtx: pl.NeedNoFlushedCtx,
		})
	}
	for _, pc := range ps.Calls {
		callee := az.mod.Func(pc.Callee)
		if callee == nil || callee.IsDecl() {
			return nil
		}
		s.calls[callee] = callCtx{dirty: pc.Dirty, flushed: pc.Flushed}
	}
	return s
}

// sumEncoder accumulates the canonical byte encoding for hashing; every
// field is length- or tag-delimited.
type sumEncoder struct {
	buf []byte
}

func (e *sumEncoder) str(s string) {
	e.buf = binary.AppendUvarint(e.buf, uint64(len(s)))
	e.buf = append(e.buf, s...)
}

func (e *sumEncoder) u64(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *sumEncoder) i64(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *sumEncoder) boolean(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

func (e *sumEncoder) frame(fr trace.Frame) {
	e.str(fr.Func)
	e.u64(uint64(fr.InstrID))
	e.str(fr.Loc.File)
	e.u64(uint64(fr.Loc.Line))
}

func (e *sumEncoder) frames(frs []trace.Frame) {
	e.u64(uint64(len(frs)))
	for _, fr := range frs {
		e.frame(fr)
	}
}

func (e *sumEncoder) strs(ss []string) {
	e.u64(uint64(len(ss)))
	for _, s := range ss {
		e.str(s)
	}
}

// contentHash hashes the full canonical encoding. Slice orders are either
// sorted at canonicalize time or deterministic emit orders, so equal
// summaries always encode — and hash — identically.
func (ps *FuncSummary) contentHash() string {
	e := &sumEncoder{buf: make([]byte, 0, 1024)}
	e.str(ps.Fn)
	e.boolean(ps.FenceMay)
	e.boolean(ps.FenceMust)
	e.u64(uint64(len(ps.Flushes)))
	for i := range ps.Flushes {
		fe := &ps.Flushes[i]
		e.strs(fe.Objs)
		e.boolean(fe.All)
		e.frame(fe.Site)
	}
	e.u64(uint64(len(ps.Ckpts)))
	for _, chain := range ps.Ckpts {
		e.frames(chain)
	}
	e.u64(uint64(len(ps.Exit)))
	for i := range ps.Exit {
		pf := &ps.Exit[i]
		e.frames(pf.Stack)
		e.u64(uint64(pf.Op))
		e.i64(pf.Size)
		e.boolean(pf.NT)
		e.strs(pf.Objs)
		e.boolean(pf.AnyObj)
		e.boolean(pf.LineOK)
		e.str(pf.Root.Global)
		e.str(pf.Root.Func)
		e.u64(uint64(pf.Root.ID))
		e.i64(pf.LineLo)
		e.i64(pf.LineHi)
		e.frames(pf.FlushSites)
		e.u64(uint64(pf.Bits))
	}
	e.u64(uint64(len(ps.Reports)))
	for i := range ps.Reports {
		pr := &ps.Reports[i]
		e.frames(pr.Stack)
		e.u64(uint64(pr.Op))
		e.i64(pr.Size)
		e.boolean(pr.NT)
		e.boolean(pr.NeedFlush)
		e.boolean(pr.NeedFence)
		e.u64(uint64(len(pr.Ckpts)))
		for _, chain := range pr.Ckpts {
			e.frames(chain)
		}
		e.frames(pr.FlushSites)
	}
	e.u64(uint64(len(ps.Lints)))
	for i := range ps.Lints {
		pl := &ps.Lints[i]
		e.u64(uint64(pl.Kind))
		e.frame(pl.Site)
		e.str(pl.Block)
		e.boolean(pl.NeedNoDirtyCtx)
		e.boolean(pl.NeedNoFlushedCtx)
	}
	e.u64(uint64(len(ps.Calls)))
	for _, pc := range ps.Calls {
		e.str(pc.Callee)
		e.boolean(pc.Dirty)
		e.boolean(pc.Flushed)
	}
	sum := sha256.Sum256(e.buf)
	return hex.EncodeToString(sum[:])
}

// Store is the bounded, concurrency-safe cache a daemon shares across
// analysis runs: canonical function summaries keyed as described at
// analyzer.keyOf, and the alias layer's constraint lists keyed by body
// fingerprint. Both are content-addressed, so a hit replays exactly what
// a recompute would produce.
type Store struct {
	Summaries   *lru.Cache[string, *FuncSummary]
	Constraints *lru.Cache[string, []alias.Cons]
}

// NewStore returns a Store bounded to max summaries and max constraint
// lists (<=0 selects 8192).
func NewStore(max int) *Store {
	if max <= 0 {
		max = 8192
	}
	return &Store{
		Summaries:   lru.New[string, *FuncSummary](max),
		Constraints: lru.New[string, []alias.Cons](max),
	}
}

// StoreStats is a point-in-time snapshot of both cache layers.
type StoreStats struct {
	SummaryHits, SummaryMisses int64
	ConsHits, ConsMisses       int64
	Summaries, Constraints     int
}

// Stats snapshots the cumulative counters and sizes.
func (s *Store) Stats() StoreStats {
	sh, sm := s.Summaries.Stats()
	ch, cm := s.Constraints.Stats()
	return StoreStats{
		SummaryHits: sh, SummaryMisses: sm,
		ConsHits: ch, ConsMisses: cm,
		Summaries: s.Summaries.Len(), Constraints: s.Constraints.Len(),
	}
}

// IncrStats reports one analysis run's store traffic: how many function
// summaries and constraint lists were replayed versus recomputed.
type IncrStats struct {
	SumHits, SumMisses   int
	ConsHits, ConsMisses int
}

// HitRatio returns the summary-level hit ratio in [0,1].
func (st IncrStats) HitRatio() float64 {
	if st.SumHits+st.SumMisses == 0 {
		return 0
	}
	return float64(st.SumHits) / float64(st.SumHits+st.SumMisses)
}
