package pmcheck

import (
	"hippocrates/internal/obs"
	"hippocrates/internal/trace"
)

// CheckObs runs Check under a "detect" child span of sp, publishing the
// replay statistics as pmcheck.* counters and a per-report occurrence
// histogram. With a nil span it is exactly Check. It is for loaded
// traces; a run the pipeline makes itself detects online (ResultObs).
func CheckObs(sp *obs.Span, t *trace.Trace) *Result {
	dsp := sp.Start("detect")
	defer dsp.End()
	res := Check(t)
	res.RecordObs(dsp)
	return res
}

// ResultObs is Result under a "detect" child span of sp, publishing the
// counters CheckObs publishes. With a nil span it is exactly Result.
func (d *Detector) ResultObs(sp *obs.Span) *Result {
	dsp := sp.Start("detect")
	defer dsp.End()
	res := d.Result()
	res.RecordObs(dsp)
	return res
}

// RecordObs publishes the detector result into the span's recorder.
func (res *Result) RecordObs(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.Add("pmcheck.stores", int64(res.Stores))
	sp.Add("pmcheck.flushes", int64(res.Flushes))
	sp.Add("pmcheck.fences", int64(res.Fences))
	sp.Add("pmcheck.checkpoints", int64(res.Checkpoints))
	sp.Add("pmcheck.reports", int64(len(res.Reports)))
	sp.Add("pmcheck.unique_sites", int64(res.UniqueSites()))
	sp.Add("pmcheck.lines_touched", int64(res.LinesTouched))
	sp.Add("pmcheck.redundant_flushes", int64(len(res.RedundantFlushes)))
	sp.Add("pmcheck.redundant_fences", int64(len(res.RedundantFences)))
	for _, r := range res.Reports {
		sp.Observe("report.occurrences", int64(r.Occurrences))
	}
}
