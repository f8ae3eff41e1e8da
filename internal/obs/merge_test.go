package obs

import (
	"encoding/json"
	"testing"
)

// TestQuantileEdgeCases pins Histogram.Quantile where estimation gets no
// slack: empty and single-sample histograms, and the q=0 / q=1 extremes,
// which must be exact (the observed Min and Max).
func TestQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil histogram: Quantile(0.5) = %d, want 0", got)
	}
	empty := &Histogram{}
	for _, q := range []float64{0, 0.5, 1} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty histogram: Quantile(%v) = %d, want 0", q, got)
		}
	}

	single := &Histogram{}
	single.observe(37)
	for _, q := range []float64{0, 0.25, 0.5, 0.99, 1} {
		if got := single.Quantile(q); got != 37 {
			t.Errorf("single sample: Quantile(%v) = %d, want 37", q, got)
		}
	}

	h := &Histogram{}
	for _, v := range []int64{3, 5, 900, 17, 1} {
		h.observe(v)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("Quantile(0) = %d, want observed min 1", got)
	}
	if got := h.Quantile(1); got != 900 {
		t.Errorf("Quantile(1) = %d, want observed max 900", got)
	}
	// Out-of-range q clamps to the extremes instead of misindexing.
	if got := h.Quantile(-3); got != 1 {
		t.Errorf("Quantile(-3) = %d, want 1", got)
	}
	if got := h.Quantile(42); got != 900 {
		t.Errorf("Quantile(42) = %d, want 900", got)
	}
	// Interior quantiles stay within the bucket's factor-of-two bound.
	if got := h.Quantile(0.5); got < 5 || got > 9 {
		t.Errorf("Quantile(0.5) = %d, want within [5,9] (bucket bound of 5)", got)
	}

	// Negative observations land in bucket 0 whose bound clamps to Min.
	neg := &Histogram{}
	neg.observe(-10)
	neg.observe(4)
	if got := neg.Quantile(0); got != -10 {
		t.Errorf("Quantile(0) with negatives = %d, want -10", got)
	}
}

// TestMergeSemantics pins Merge's contract: counters sum, and nothing
// else crosses over.
func TestMergeSemantics(t *testing.T) {
	dst := New()
	dst.Add("jobs", 2)
	dst.Observe("lat", 10)

	src := New()
	src.Add("jobs", 3)
	src.Add("only_src", 8)
	src.Observe("lat", 1000)
	src.Observe("src_hist", 1)
	src.StartSpan("job").End()
	src.RecordAudit(AuditEntry{Action: "insert-flush"})

	dst.Merge(src)

	if got := dst.Counter("jobs"); got != 5 {
		t.Errorf("counter merged to %d, want sum 5", got)
	}
	if got := dst.Counter("only_src"); got != 8 {
		t.Errorf("counter new in src = %d, want 8", got)
	}
	// Merging again re-applies: counters keep summing.
	dst.Merge(src)
	if got := dst.Counter("jobs"); got != 8 {
		t.Errorf("second merge: counter = %d, want 8", got)
	}

	// Histograms, spans and audit entries stay on the source.
	hists := dst.Histograms()
	if h := hists["lat"]; h.Count != 1 || h.Sum != 10 {
		t.Errorf("destination histogram changed by the merge: %+v", h)
	}
	if _, ok := hists["src_hist"]; ok {
		t.Error("a source histogram was merged")
	}
	if len(dst.Spans()) != 0 || dst.AuditLen() != 0 {
		t.Errorf("merge copied %d spans and %d audit entries", len(dst.Spans()), dst.AuditLen())
	}
}

// TestMergedGaugesExport: the daemon's merged aggregate exports as a
// valid -metrics document, and that document no longer carries the
// gauges key (the gauge kind is gone; Merge folds counters only).
func TestMergedGaugesExport(t *testing.T) {
	agg := New()
	job := New()
	job.Add("jobs", 1)
	job.Observe("job.ns", 123)
	agg.Merge(job)
	data, err := agg.MetricsJSON()
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateMetrics(data); err != nil {
		t.Fatalf("merged metrics violate schema: %v", err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if _, ok := doc["gauges"]; ok {
		t.Errorf("merged metrics still carry a gauges key: %s", data)
	}
	if _, ok := doc["counters"]; !ok {
		t.Errorf("merged metrics lack the counters key: %s", data)
	}
}
