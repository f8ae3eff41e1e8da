package bench

import (
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/optimize"
)

// Optimize-sweep caps, the same as `make optimize-smoke`.
const (
	optSweepMaxPoints = 16
	optSweepMaxImages = 4
	optSweepStepLimit = 50_000_000
)

// TestOptSweepFindsProvenSavings pins the corpus-level optimize outcome:
// at least five targets (redis-flushfree among them) lose a flush or
// fence, every crashsim-able target carries a verdict-identity proof,
// and the accepted edits reduce simulated cost. Each build with
// durability reports is Hippocrates-repaired before optimizing.
func TestOptSweepFindsProvenSavings(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	var edited, proven int
	var before, after float64
	var flushfree *optimize.Result
	flushfreeRepaired := false
	for _, p := range corpus.All() {
		mod := p.MustCompile()
		run, err := core.TraceAndCheck(nil, mod, p.Entry, core.Options{StepLimit: optSweepStepLimit})
		if err != nil {
			t.Fatalf("%s: trace: %v", p.Name, err)
		}
		repaired := false
		if !run.Check.Clean() {
			pr, err := core.RunAndRepair(mod, p.Entry, core.Options{StepLimit: optSweepStepLimit})
			if err != nil {
				t.Fatalf("%s: repair: %v", p.Name, err)
			}
			if !pr.Fixed() {
				t.Fatalf("%s: repair incomplete", p.Name)
			}
			repaired = true
		}
		res, err := optimize.Optimize(mod, optimize.Options{
			Entry:     p.Entry,
			MaxPoints: optSweepMaxPoints,
			MaxImages: optSweepMaxImages,
			StepLimit: optSweepStepLimit,
		})
		if err != nil {
			t.Fatalf("%s: optimize: %v", p.Name, err)
		}
		if res.Applied() > 0 {
			edited++
		}
		if res.CrashsimProven {
			proven++
		}
		before += res.SimNsBefore
		after += res.SimNsAfter
		if p.Name == "redis-flushfree" {
			flushfree, flushfreeRepaired = res, repaired
		}
	}
	if edited < 5 {
		t.Errorf("only %d targets accepted edits, want >= 5", edited)
	}
	if proven < 15 {
		t.Errorf("only %d crashsim-proven targets, want >= 15", proven)
	}
	if saved := before - after; saved <= 0 {
		t.Errorf("sweep saved %.1fns, want > 0", saved)
	}
	if flushfree == nil {
		t.Fatal("redis-flushfree missing from the sweep")
	}
	if !flushfreeRepaired {
		t.Error("redis-flushfree should be repaired before optimizing (its flushes are stubbed)")
	}
	if got := flushfree.Deleted + flushfree.Merged + flushfree.Sunk; got < 1 {
		t.Errorf("showcase redis-flushfree accepted %d edits, want >= 1", got)
	}
	if flushfree.SavedNs() <= 0 {
		t.Errorf("showcase redis-flushfree saved %.1fns, want > 0", flushfree.SavedNs())
	}
}
