package optimize_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"testing"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
)

// optimizeDigest is everything an optimize pass reports: its wire
// result (simulated times, every edit with its decision and proof), the
// remaining lints and the optimized module.
func optimizeDigest(t *testing.T, mod *ir.Module, res *optimize.Result) string {
	t.Helper()
	doc, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	lints := ""
	for _, l := range res.FinalLints {
		lints += fmt.Sprintf("%s %v %s\n", l.Kind, l.Site, l.Block)
	}
	return string(doc) + "\n" + lints + ir.Print(mod)
}

// TestOptimizeBaselineIdentical: over the optimize-smoke corpus,
// optimize started from the pipeline's own run of the module reports
// exactly what it reports when it measures the module itself, and runs
// the module for its baseline only when there is a candidate to prove.
func TestOptimizeBaselineIdentical(t *testing.T) {
	for _, p := range corpus.All() {
		mod := p.MustCompile()
		opts := core.Options{StepLimit: smokeStepLimit}
		pr, err := core.RunAndRepair(mod, p.Entry, opts)
		if err != nil {
			t.Fatalf("%s: repair: %v", p.Name, err)
		}
		if !pr.Fixed() {
			t.Fatalf("%s: repair incomplete", p.Name)
		}
		own := ir.CloneModule(mod)
		optimizeOn := func(m *ir.Module, base *core.Run) (*optimize.Result, int64) {
			rec := obs.New()
			res, err := optimize.Optimize(m, optimize.Options{
				Entry:     p.Entry,
				MaxPoints: smokeMaxPoints,
				MaxImages: smokeMaxImages,
				StepLimit: smokeStepLimit,
				Baseline:  base,
				Obs:       rec.StartSpan("pipeline"),
			})
			if err != nil {
				t.Fatalf("%s: optimize: %v", p.Name, err)
			}
			return res, rec.Counter("optimize.baseline_runs")
		}
		got, gotRuns := optimizeOn(mod, pr.Final)
		want, wantRuns := optimizeOn(own, nil)
		if g, w := optimizeDigest(t, mod, got), optimizeDigest(t, own, want); g != w {
			t.Errorf("%s: optimize from the pipeline's run differs from its own baseline\n--- pipeline run\n%s\n--- own run\n%s", p.Name, g, w)
		}
		if wantRuns != 1 {
			t.Errorf("%s: optimize without a baseline made %d baseline runs, want 1", p.Name, wantRuns)
		}
		if wantCands := int64(min(got.Candidates, 1)); gotRuns != wantCands {
			t.Errorf("%s: optimize from the pipeline's run made %d baseline runs with %d candidates", p.Name, gotRuns, got.Candidates)
		}
	}
}

// TestOptimizeDeadline: the pass's interpreter runs stop at
// Options.Deadline with the interpreter's typed deadline error.
func TestOptimizeDeadline(t *testing.T) {
	mod, err := lang.Compile("long.pmc", `
pm int cell[8];

int main() {
	int i = 0;
	while (i < 2000000) {
		i = i + 1;
	}
	cell[0] = i;
	clwb(&cell[0]);
	sfence();
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = optimize.Optimize(mod, optimize.Options{Deadline: time.Now()})
	var le *interp.LimitError
	if !errors.As(err, &le) || le.Resource != "deadline" {
		t.Fatalf("err = %v, want a deadline *interp.LimitError", err)
	}
}
