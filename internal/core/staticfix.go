package core

import (
	"fmt"

	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/static"
)

// StaticPipelineResult is the outcome of a static-analysis-driven repair.
type StaticPipelineResult struct {
	// Before is the static analysis of the module as given.
	Before *static.Result
	// Fix describes the applied fixes (nil when Before was already clean).
	Fix *Result
	// After re-analyzes the repaired module; a sound fix leaves it clean.
	After *static.Result
}

// StaticRepair runs the repair pipeline with the static persistency
// analysis as the bug source instead of a dynamic trace: analyze the entry,
// convert the reports into the detector's shape, plan and apply fixes, then
// re-analyze to validate. The fixer runs on whole-program alias facts
// (Full-AA): with no trace there is nothing for Trace-AA to refine, so a
// TraceAA request is overridden. It plans over the alias analysis the
// first pass solved, since the module has not changed in between, so a
// repair solves alias analysis twice: before the fix and after it.
func StaticRepair(mod *ir.Module, entry string, opts Options) (out *StaticPipelineResult, err error) {
	defer Guard("static repair", &err)
	sp := opts.Obs
	// Both analysis passes share a summary store — the caller's long-lived
	// one when provided, an ephemeral one otherwise — so the post-repair
	// re-analysis replays every function the repair plan did not touch
	// instead of recomputing the whole module from scratch.
	store := opts.SummaryStore
	if store == nil {
		store = static.NewStore(0)
	}
	sres, an, err := static.AnalyzeObsStore(mod, entry, store, sp)
	if err != nil {
		return nil, err
	}
	out = &StaticPipelineResult{Before: sres}
	if sres.Clean() {
		out.After = sres
		return out, nil
	}
	opts.Marks = FullAA
	fx := newFixer(mod, an, alias.FullMarks(an), opts)
	if err := fx.Apply(sres.PMCheckReports()); err != nil {
		return nil, fmt.Errorf("static repair: %w", err)
	}
	out.Fix = fx.Result()
	rsp := sp.Start("revalidate")
	defer rsp.End()
	after, _, err := static.AnalyzeObsStore(mod, entry, store, rsp)
	if err != nil {
		return nil, fmt.Errorf("static repair re-analysis: %w", err)
	}
	out.After = after
	rsp.Add("revalidate.remaining_reports", int64(len(after.Reports)))
	return out, nil
}
