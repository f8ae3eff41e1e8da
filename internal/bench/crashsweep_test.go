package bench

import (
	"runtime"
	"slices"
	"testing"
)

// TestCrashSweepDedupVerdictsIdentical is the corpus-scale ablation: the
// content-addressed fast path must report exactly the schedules and
// failures the dedup-off sweep reports, while actually booting fewer
// images. Both sweeps must reproduce the pre-fast-path baseline's
// schedule and failure counts, and the dedup sweep must allocate at most
// a tenth of the baseline's bytes.
func TestCrashSweepDedupVerdictsIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full corpus sweep")
	}
	targets, err := PrepareCrashSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no crash-sweep targets in corpus")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	on, err := RunCrashSweep(targets, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(CrashSweepBaselineBytesPerOp/10); got > limit {
		t.Errorf("dedup sweep allocated %d bytes, want <= %d (a tenth of the pre-fast-path baseline)", got, limit)
	}
	off, err := RunCrashSweep(targets, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []struct {
		name string
		out  *CrashSweepOutcome
	}{{"dedup", on}, {"no-dedup", off}} {
		if sw.out.Schedules != CrashSweepBaselineSchedules || sw.out.Failures != CrashSweepBaselineFailures {
			t.Errorf("%s sweep: %d schedules, %d failures; baseline pins %d and %d",
				sw.name, sw.out.Schedules, sw.out.Failures, CrashSweepBaselineSchedules, CrashSweepBaselineFailures)
		}
	}
	if !slices.Equal(on.FailureKeys, off.FailureKeys) {
		t.Errorf("verdicts differ across dedup modes:\non:  %v\noff: %v", on.FailureKeys, off.FailureKeys)
	}
	if on.DedupedSchedules == 0 && on.CacheHits == 0 {
		t.Error("dedup sweep reused no verdicts; fast path inert")
	}
	if on.ImagesBuilt >= off.ImagesBuilt {
		t.Errorf("dedup built %d images, no-dedup %d; expected fewer", on.ImagesBuilt, off.ImagesBuilt)
	}
	if off.DedupedSchedules != 0 || off.CacheHits != 0 || off.CacheMisses != 0 {
		t.Errorf("no-dedup sweep touched the verdict cache: %d deduped, %d/%d hits/misses",
			off.DedupedSchedules, off.CacheHits, off.CacheMisses)
	}
}
