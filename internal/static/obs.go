package static

import (
	"hippocrates/internal/alias"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
)

// AnalyzeObsStore runs AnalyzeWithStore under a "static-analyze" child
// span of sp, publishing the analysis statistics as static.* counters;
// with a store, the run's summary and constraint hit/miss counts are
// published as static.sum_* / static.cons_* counters. With a nil span it
// is exactly AnalyzeWithStore. It also returns the whole-program alias
// analysis the run solved, valid until mod is next mutated, so a repair
// of the same module version can plan over it instead of solving it
// again.
func AnalyzeObsStore(mod *ir.Module, entry string, store *Store, sp *obs.Span) (*Result, *alias.Analysis, error) {
	asp := sp.Start("static-analyze")
	defer asp.End()
	res, an, err := analyze(mod, entry, store)
	if res != nil {
		asp.SetAttr("entry", res.Entry)
		asp.Add("static.funcs", int64(res.Funcs))
		asp.Add("static.reports", int64(len(res.Reports)))
		asp.Add("static.lints", int64(len(res.Lints)))
		var byKind [3]int64
		for _, l := range res.Lints {
			if int(l.Kind) < len(byKind) {
				byKind[l.Kind]++
			}
		}
		asp.Add("static.lints.redundant_flush", byKind[LintRedundantFlush])
		asp.Add("static.lints.redundant_fence", byKind[LintRedundantFence])
		asp.Add("static.lints.flush_after_nt", byKind[LintFlushAfterNT])
		if store != nil {
			asp.Add("static.sum_hits", int64(res.Incr.SumHits))
			asp.Add("static.sum_misses", int64(res.Incr.SumMisses))
			asp.Add("static.cons_hits", int64(res.Incr.ConsHits))
			asp.Add("static.cons_misses", int64(res.Incr.ConsMisses))
		}
	}
	return res, an, err
}
