// Package static is the static persistency-state analysis: it finds the
// durability bugs pmcheck finds dynamically, but without running the
// program. A flow-sensitive dataflow pass tracks, per may-PM store site, a
// set of possible persistency states (dirty → flushed → durable, the same
// state machine internal/pmem replays), joined over all CFG paths and
// seeded with PM-ness from the Full-AA points-to results. Bottom-up
// function summaries over the direct-call-only (hence exact) call graph
// make it interprocedural: a summary records whether a callee may/must
// fence, which lines it may flush, its reachable durability points, and
// the stores still undurable at return.
//
// Soundness contract (the agreement harness enforces it): at every store
// site the dynamic detector reports, the static analysis reports the same
// site with at-least-covering mechanism needs. The analysis errs only
// toward over-reporting: state-removing (strong) updates are applied only
// when provable — a flush covers a fact "must"-wise only via the
// same-block same-address rule or a constant line range off a PM global,
// and a callee removes states only under a must-fence on every path.
package static

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// LintKind classifies a performance diagnostic.
type LintKind int

// The lint kinds (§7 of the paper: reported, never auto-fixed).
const (
	// LintRedundantFlush is a flush that can never move a line toward
	// durability on any path reaching it (every covered fact is already
	// flushed or durable).
	LintRedundantFlush LintKind = iota
	// LintRedundantFence is a fence with nothing to drain: no tracked
	// store can be in the awaiting-fence state at the fence.
	LintRedundantFence
	// LintFlushAfterNT is an explicit flush of a line whose only pending
	// content is a non-temporal store, which already bypassed the cache.
	LintFlushAfterNT
)

func (k LintKind) String() string {
	switch k {
	case LintRedundantFlush:
		return "redundant-flush"
	case LintRedundantFence:
		return "redundant-fence"
	case LintFlushAfterNT:
		return "flush-after-ntstore"
	}
	return fmt.Sprintf("lint(%d)", int(k))
}

// Lint is one performance diagnostic at a static site. Lints are emitted
// in every analyzed function, not just the entry: a callee lint survives
// only when no caller context can revive the instruction (the top-down
// context pass proves the relevant persistency states absent at every
// call chain from the entry).
type Lint struct {
	Kind  LintKind
	Site  trace.Frame
	Block string

	// needNoDirtyCtx / needNoFlushedCtx are the caller-context conditions
	// under which the local redundancy argument holds; the context pass
	// drops the lint when a caller may present the named state.
	needNoDirtyCtx   bool
	needNoFlushedCtx bool
}

func (l *Lint) String() string {
	return fmt.Sprintf("%s at %s", l.Kind, l.Site)
}

// Report is one statically detected durability bug: a store site, the call
// chain it was reached through, and the mechanisms a fix must provide. The
// site shape matches pmcheck.Report so the fixer can consume static
// reports unchanged (see Result.PMCheckReports).
type Report struct {
	// Func / Block / InstrID / Loc locate the store instruction.
	Func    string
	Block   string
	InstrID int
	Loc     ir.Loc

	// Op is OpStore, OpNTStore, or OpCall (builtin memcpy/memset).
	Op   ir.Op
	Size int64
	NT   bool

	NeedFlush bool
	NeedFence bool

	// Stack is the call chain (innermost first) from the store up to the
	// entry function, like a dynamic trace stack.
	Stack []trace.Frame
	// Checkpoints are the durability-point call chains that may observe
	// the store undurable; an empty chain is the end of the program.
	Checkpoints [][]trace.Frame
	// FlushSites are flushes that may have flushed the store on
	// missing-fence paths — where a fence-only fix belongs.
	FlushSites []trace.Frame
}

// Class returns the paper's bug classification.
func (r *Report) Class() pmem.BugClass {
	switch {
	case r.NeedFlush && r.NeedFence:
		return pmem.MissingFlushFence
	case r.NeedFlush:
		return pmem.MissingFlush
	default:
		return pmem.MissingFence
	}
}

// Site returns the store's innermost frame.
func (r *Report) Site() trace.Frame {
	return trace.Frame{Func: r.Func, InstrID: r.InstrID, Loc: r.Loc}
}

// Key returns the site key shared with the dynamic detector.
func (r *Report) Key() pmcheck.SiteKey {
	return pmcheck.SiteKey{Func: r.Func, InstrID: r.InstrID}
}

func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %s", r.Class(), r.Site())
	if r.Block != "" {
		fmt.Fprintf(&b, " (block %%%s)", r.Block)
	}
	for _, f := range r.Stack[1:] {
		fmt.Fprintf(&b, "\n\tcalled from %s", f)
	}
	return b.String()
}

// Result is the static analysis output for one module entry.
type Result struct {
	Entry   string
	Reports []*Report
	Lints   []*Lint
	// Funcs counts the defined functions reachable from (and including)
	// the entry — the functions the analysis summarized.
	Funcs int
	// Incr reports this run's summary/constraint store traffic (zero
	// when the run had no store).
	Incr IncrStats
}

// Clean reports whether no durability bugs were found.
func (res *Result) Clean() bool { return len(res.Reports) == 0 }

// UniqueSites counts distinct static store sites, the paper's bug count.
func (res *Result) UniqueSites() int {
	seen := map[pmcheck.SiteKey]bool{}
	for _, r := range res.Reports {
		seen[r.Key()] = true
	}
	return len(seen)
}

// NeedsBySite folds the reports into per-site mechanism needs — one side
// of the static/dynamic agreement comparison.
func (res *Result) NeedsBySite() map[pmcheck.SiteKey]pmcheck.Needs {
	out := make(map[pmcheck.SiteKey]pmcheck.Needs, len(res.Reports))
	for _, r := range res.Reports {
		n := out[r.Key()]
		n.Flush = n.Flush || r.NeedFlush
		n.Fence = n.Fence || r.NeedFence
		out[r.Key()] = n
	}
	return out
}

// PMCheckReports converts the static reports into pmcheck.Report values
// backed by synthetic trace events, so internal/core's fixer can plan and
// apply repairs from a static run exactly as from a dynamic one. Addresses
// are absent (static reports have none); the fixer never reads them.
func (res *Result) PMCheckReports() []*pmcheck.Report {
	seq := 0
	out := make([]*pmcheck.Report, 0, len(res.Reports))
	for _, r := range res.Reports {
		kind := trace.KindStore
		if r.NT {
			kind = trace.KindNTStore
		}
		se := &trace.Event{Seq: seq, Kind: kind, Size: int(r.Size), Stack: r.Stack}
		seq++
		var ckpts []*trace.Event
		for _, chain := range r.Checkpoints {
			ckpts = append(ckpts, &trace.Event{Seq: seq, Kind: trace.KindCheckpoint, Stack: chain})
			seq++
		}
		out = append(out, &pmcheck.Report{
			Store:       se,
			NeedFlush:   r.NeedFlush,
			NeedFence:   r.NeedFence,
			Checkpoints: ckpts,
			FlushSites:  append([]trace.Frame(nil), r.FlushSites...),
			Occurrences: 1,
		})
	}
	return out
}

// Summary renders a human-readable digest.
func (res *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "static: analyzed %d function(s) from entry %s\n", res.Funcs, res.Entry)
	if res.Clean() {
		b.WriteString("static: no durability bugs found\n")
	} else {
		fmt.Fprintf(&b, "static: %d durability bug(s) at %d site(s):\n", len(res.Reports), res.UniqueSites())
		for i, r := range res.Reports {
			fmt.Fprintf(&b, "[%d] %s\n", i+1, r)
		}
	}
	for _, l := range res.Lints {
		fmt.Fprintf(&b, "static: lint: %s\n", l)
	}
	return b.String()
}

// AnalyzeWithStore runs the static persistency analysis on the module,
// rooted at the named entry function, backed by a summary store: function
// summaries (and the alias layer's per-function constraint lists) are
// replayed from the store when the cache key — body fingerprint, alias
// digest, callee summary hashes — matches, and recomputed and stored
// otherwise. The result is byte-identical to a storeless run: cold and
// warm paths share every piece of analysis code, a hit merely skips
// re-deriving what the key proves unchanged. A nil store analyzes from
// scratch.
func AnalyzeWithStore(mod *ir.Module, entry string, store *Store) (*Result, error) {
	res, _, err := analyze(mod, entry, store)
	return res, err
}

// analyze is AnalyzeWithStore that also returns the whole-program alias
// analysis the run solved over mod.
func analyze(mod *ir.Module, entry string, store *Store) (*Result, *alias.Analysis, error) {
	entryFn := mod.Func(entry)
	if entryFn == nil {
		return nil, nil, fmt.Errorf("static: entry function %q not found", entry)
	}
	if entryFn.IsDecl() {
		return nil, nil, fmt.Errorf("static: entry function %q has no body", entry)
	}
	az := newAnalyzer(mod, entryFn, store)
	an := az.an
	az.run()

	// Only the entry's reports and exit facts are read from here on.
	entrySum := az.sums[entryFn]
	if entrySum.snap != nil {
		az.replay(entrySum, false)
	}
	// The end of the program is an implicit durability point: every fact
	// still live at the entry's returns is reported with an empty
	// checkpoint chain (the dynamic trace's final checkpoint(nil)).
	entrySum.exit.each(func(id int32, bits stateBits) {
		entrySum.mergeReport(entrySum.facts[id], bits, 0)
	})

	cs := an.ConsStatsOf()
	res := &Result{Entry: entry, Funcs: len(az.sums), Incr: IncrStats{
		SumHits: az.sumHits, SumMisses: az.sumMisses,
		ConsHits: cs.Hits, ConsMisses: cs.Misses,
	}}
	type keyed struct {
		r     *Report
		chain chainID
	}
	reps := make([]keyed, 0, len(entrySum.reports))
	for _, r := range entrySum.reports {
		out := az.exportReport(r)
		res.Reports = append(res.Reports, out)
		reps = append(reps, keyed{out, r.chain})
	}
	if az.threaded {
		// Spawn-aware fallback: the sequential flow cannot bound what an
		// interleaving leaves pending, so every reachable may-PM store
		// site is reported needing flush+fence (see threads.go).
		for _, r := range az.threadBlanketReports(res.NeedsBySite()) {
			reps = append(reps, keyed{r, az.chains.intern(r.Stack)})
		}
	}
	// Reports are ordered by site, then by their chains' func@id; keys.
	// Stable: a flow report and the blanket report of the same site and
	// chain tie, and the flow's richer one, appended first, stays first.
	slices.SortStableFunc(reps, func(a, b keyed) int {
		if c := strings.Compare(a.r.Func, b.r.Func); c != 0 {
			return c
		}
		if c := cmp.Compare(a.r.InstrID, b.r.InstrID); c != 0 {
			return c
		}
		return strings.Compare(az.chains.key(a.chain), az.chains.key(b.chain))
	})
	res.Reports = res.Reports[:0]
	for _, k := range reps {
		res.Reports = append(res.Reports, k.r)
	}

	// Top-down lint-context pass: propagate, entry-down over the call
	// graph, whether some chain of calls may reach a function while a
	// caller fact is dirty or flushed. ctx(f) joins, over every call site
	// g→f, the caller's local context at the call with the caller's own
	// incoming context (a caller fact live across g is conservatively
	// assumed live at every call g makes). Bits only rise, so the fixpoint
	// is the least one regardless of iteration order.
	ctx := make(map[*ir.Func]callCtx, len(az.sums))
	for changed := true; changed; {
		changed = false
		for fn, s := range az.sums {
			base := ctx[fn]
			for callee, c := range s.calls {
				nc := ctx[callee].or(c).or(base)
				if nc != ctx[callee] {
					ctx[callee] = nc
					changed = true
				}
			}
		}
	}
	for _, s := range az.sums {
		if az.threaded {
			// No lints in spawn modules: a flush or fence the sequential
			// flow calls redundant may be load-bearing under another
			// interleaving, and the optimizer deletes what lints name.
			break
		}
		c := ctx[s.fn]
		for _, l := range s.lints {
			if l.needNoDirtyCtx && c.dirty {
				continue
			}
			if l.needNoFlushedCtx && c.flushed {
				continue
			}
			res.Lints = append(res.Lints, l)
		}
	}
	slices.SortFunc(res.Lints, func(a, b *Lint) int {
		if c := strings.Compare(a.Site.Func, b.Site.Func); c != 0 {
			return c
		}
		if c := cmp.Compare(a.Site.InstrID, b.Site.InstrID); c != 0 {
			return c
		}
		return cmp.Compare(a.Kind, b.Kind)
	})
	return res, an, nil
}

// newAnalyzer solves the module's alias analysis (its constraint lists
// replayed from store when one is given) and readies the bottom-up pass.
func newAnalyzer(mod *ir.Module, entryFn *ir.Func, store *Store) *analyzer {
	az := &analyzer{
		mod:       mod,
		entry:     entryFn,
		sumHash:   make(map[*ir.Func]string),
		sums:      make(map[*ir.Func]*summary),
		fenceMay:  make(map[*ir.Func]bool),
		fenceMust: make(map[*ir.Func]bool),
		chains:    newChainTable(),
		pts:       make(map[ir.Value]ptsInfo),
	}
	if store != nil {
		az.an = alias.AnalyzeWithStore(mod, store.Constraints)
		az.store = store.Summaries
	} else {
		az.an = alias.Analyze(mod)
	}
	return az
}

// exportReport converts an internal report (absolute stack, rooted at the
// entry) into the public shape.
func (az *analyzer) exportReport(r *report) *Report {
	stack := az.chains.stack(r.chain)
	site := stack[0]
	out := &Report{
		Func:       site.Func,
		InstrID:    site.InstrID,
		Loc:        site.Loc,
		Op:         r.op,
		Size:       r.size,
		NT:         r.nt,
		NeedFlush:  r.needFlush,
		NeedFence:  r.needFence,
		Stack:      stack,
		FlushSites: az.chains.sites(r.flushSites),
	}
	if fn := az.mod.Func(site.Func); fn != nil && !fn.IsDecl() {
		if in := az.instrByID(fn, site.InstrID); in != nil && in.Block() != nil {
			out.Block = in.Block().Name
		}
	}
	out.Checkpoints = az.chains.sortedStacks(r.ckpts)
	return out
}
