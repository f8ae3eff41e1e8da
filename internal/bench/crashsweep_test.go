package bench

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
)

// Crash-sweep configuration, mirroring the corpus acceptance test
// (internal/corpus/crashsim_test.go) so the benchmark measures exactly
// the validation work the tier-1 gate performs.
const (
	crashSweepMaxPoints = 48
	crashSweepMaxImages = 8
	crashSweepStepLimit = 50_000_000
)

// crashSweepBaseline* record the sweep's cost BEFORE the fast path
// (copy-on-write images, incremental prefix replay, verdict dedup)
// landed: the engine then re-executed the workload once per crash point
// and deep-cloned the durable image once per schedule. Measured with
// `go test -bench BenchmarkCrashSweep -benchmem` (3 iterations) at
// commit 244922d. The fast path must reproduce Schedules and Failures
// exactly; TestCrashSweepDedupVerdictsIdentical and BenchmarkCrashSweep
// hold it to a tenth of the bytes and a fifth of the wall time.
const (
	crashSweepBaselineNsPerOp    = 1_064_171_529
	crashSweepBaselineBytesPerOp = 463_059_176
	crashSweepBaselineSchedules  = 1034
	crashSweepBaselineFailures   = 88
)

// crashSweepTarget is one corpus program prepared for the sweep: the
// buggy build and its Hippocrates-repaired twin.
type crashSweepTarget struct {
	Name     string
	Entry    string
	Buggy    *ir.Module
	Repaired *ir.Module
}

// prepareCrashSweep compiles and repairs every crashsim-able corpus
// target (seeded bugs, recovery entries; the eADR redis ports carry no
// crash-schedule evidence and are excluded). Preparation is kept out of
// the timed region: the benchmark measures validation, not repair.
func prepareCrashSweep() ([]crashSweepTarget, error) {
	var out []crashSweepTarget
	for _, p := range corpus.All() {
		if strings.HasPrefix(p.Name, "redis") || len(p.Bugs) == 0 {
			continue
		}
		repaired := p.MustCompile()
		pr, err := core.RunAndRepair(repaired, p.Entry, core.Options{StepLimit: crashSweepStepLimit})
		if err != nil {
			return nil, fmt.Errorf("%s: repair: %w", p.Name, err)
		}
		if !pr.Fixed() {
			return nil, fmt.Errorf("%s: repair incomplete", p.Name)
		}
		out = append(out, crashSweepTarget{
			Name: p.Name, Entry: p.Entry,
			Buggy: p.MustCompile(), Repaired: repaired,
		})
	}
	return out, nil
}

// crashSweepOutcome aggregates one full sweep (buggy + repaired build of
// every target).
type crashSweepOutcome struct {
	Schedules        int
	Failures         int
	ImagesBuilt      int
	DedupedSchedules int
	CacheHits        int64
	CacheMisses      int64
	// FailureKeys canonicalizes every failure as
	// "target/build/event/kind/completed/cuts/entry/ret" — the verdict
	// identity the dedup ablation compares byte for byte.
	FailureKeys []string
}

// runCrashSweep validates every target's buggy and repaired builds under
// the sweep configuration and aggregates the outcome. With noDedup set
// the content-addressed fast path is disabled (the ablation arm).
func runCrashSweep(targets []crashSweepTarget, noDedup bool) (*crashSweepOutcome, error) {
	out := &crashSweepOutcome{}
	for _, tg := range targets {
		for _, build := range []struct {
			name string
			mod  *ir.Module
		}{{"buggy", tg.Buggy}, {"repaired", tg.Repaired}} {
			rep, err := crashsim.Validate(build.mod, crashsim.Options{
				Entry:     tg.Entry,
				MaxPoints: crashSweepMaxPoints,
				MaxImages: crashSweepMaxImages,
				StepLimit: crashSweepStepLimit,
				NoDedup:   noDedup,
			})
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", tg.Name, build.name, err)
			}
			out.Schedules += rep.Schedules
			out.Failures += len(rep.Failures)
			out.ImagesBuilt += rep.ImagesBuilt
			out.DedupedSchedules += rep.DedupedSchedules
			out.CacheHits += rep.CacheHits
			out.CacheMisses += rep.CacheMisses
			for _, f := range rep.Failures {
				out.FailureKeys = append(out.FailureKeys,
					fmt.Sprintf("%s/%s/%d/%s/%d/%v/%s/%d",
						tg.Name, build.name, f.Event, f.Kind, f.Completed, f.Cuts, f.Entry, f.Ret))
			}
		}
	}
	sort.Strings(out.FailureKeys)
	return out, nil
}

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
	targets, err := prepareCrashSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(targets) == 0 {
		t.Fatal("no crash-sweep targets in corpus")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	on, err := runCrashSweep(targets, false)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(crashSweepBaselineBytesPerOp/10); got > limit {
		t.Errorf("dedup sweep allocated %d bytes, want <= %d (a tenth of the pre-fast-path baseline)", got, limit)
	}
	off, err := runCrashSweep(targets, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, sw := range []struct {
		name string
		out  *crashSweepOutcome
	}{{"dedup", on}, {"no-dedup", off}} {
		if sw.out.Schedules != crashSweepBaselineSchedules || sw.out.Failures != crashSweepBaselineFailures {
			t.Errorf("%s sweep: %d schedules, %d failures; baseline pins %d and %d",
				sw.name, sw.out.Schedules, sw.out.Failures, crashSweepBaselineSchedules, crashSweepBaselineFailures)
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

// BenchmarkCrashSweep measures crash-schedule validation over the whole
// crashsim-able corpus (buggy and repaired build of every target), the
// quantity the COW/dedup fast path optimizes. The dedup sub-benchmark is
// the shipped configuration; no-dedup is the ablation arm that boots
// every image from scratch. Repair happens once, outside the timed loop.
// The dedup arm fails if it is not at least 5x faster per sweep than the
// pre-fast-path baseline.
func BenchmarkCrashSweep(b *testing.B) {
	targets, err := prepareCrashSweep()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		noDedup bool
	}{{"dedup", false}, {"no-dedup", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *crashSweepOutcome
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := runCrashSweep(targets, cfg.noDedup)
				if err != nil {
					b.Fatal(err)
				}
				last = out
			}
			if !cfg.noDedup {
				ns := b.Elapsed().Nanoseconds() / int64(b.N)
				if limit := int64(crashSweepBaselineNsPerOp / 5); ns > limit {
					b.Fatalf("dedup sweep took %d ns/op, want <= %d (a fifth of the pre-fast-path baseline)", ns, limit)
				}
			}
			if last != nil {
				b.ReportMetric(float64(last.Schedules), "schedules")
				b.ReportMetric(float64(last.Failures), "failures")
				b.ReportMetric(float64(last.DedupedSchedules), "deduped")
				b.ReportMetric(float64(last.ImagesBuilt), "images")
			}
		})
	}
}
