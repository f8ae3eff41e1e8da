package bench

import (
	"fmt"
	"sort"
	"strings"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
)

// Crash-sweep configuration, mirroring the corpus acceptance test
// (internal/corpus/crashsim_test.go) so the benchmark measures exactly
// the validation work the tier-1 gate performs.
const (
	CrashSweepMaxPoints = 48
	CrashSweepMaxImages = 8
	CrashSweepStepLimit = 50_000_000
)

// CrashSweepBaseline* record the sweep's cost BEFORE the fast path
// (copy-on-write images, incremental prefix replay, verdict dedup)
// landed: the engine then re-executed the workload once per crash point
// and deep-cloned the durable image once per schedule. Measured with
// `go test -bench BenchmarkCrashSweep -benchmem` (3 iterations) at
// commit 244922d. The fast path must reproduce Schedules and Failures
// exactly; TestCrashSweepDedupVerdictsIdentical and BenchmarkCrashSweep
// hold it to a tenth of the bytes and a fifth of the wall time.
const (
	CrashSweepBaselineNsPerOp    = 1_064_171_529
	CrashSweepBaselineBytesPerOp = 463_059_176
	CrashSweepBaselineSchedules  = 1034
	CrashSweepBaselineFailures   = 88
)

// CrashSweepTarget is one corpus program prepared for the sweep: the
// buggy build and its Hippocrates-repaired twin.
type CrashSweepTarget struct {
	Name     string
	Entry    string
	Buggy    *ir.Module
	Repaired *ir.Module
}

// PrepareCrashSweep compiles and repairs every crashsim-able corpus
// target (seeded bugs, recovery entries; the eADR redis ports carry no
// crash-schedule evidence and are excluded). Preparation is kept out of
// the timed region: the benchmark measures validation, not repair.
func PrepareCrashSweep() ([]CrashSweepTarget, error) {
	var out []CrashSweepTarget
	for _, p := range corpus.All() {
		if strings.HasPrefix(p.Name, "redis") || len(p.Bugs) == 0 {
			continue
		}
		repaired := p.MustCompile()
		pr, err := core.RunAndRepair(repaired, p.Entry, core.Options{StepLimit: CrashSweepStepLimit})
		if err != nil {
			return nil, fmt.Errorf("%s: repair: %w", p.Name, err)
		}
		if !pr.Fixed() {
			return nil, fmt.Errorf("%s: repair incomplete", p.Name)
		}
		out = append(out, CrashSweepTarget{
			Name: p.Name, Entry: p.Entry,
			Buggy: p.MustCompile(), Repaired: repaired,
		})
	}
	return out, nil
}

// CrashSweepOutcome aggregates one full sweep (buggy + repaired build of
// every target).
type CrashSweepOutcome struct {
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

// RunCrashSweep validates every target's buggy and repaired builds under
// the sweep configuration and aggregates the outcome. With noDedup set
// the content-addressed fast path is disabled (the ablation arm).
func RunCrashSweep(targets []CrashSweepTarget, noDedup bool) (*CrashSweepOutcome, error) {
	out := &CrashSweepOutcome{}
	for _, tg := range targets {
		for _, build := range []struct {
			name string
			mod  *ir.Module
		}{{"buggy", tg.Buggy}, {"repaired", tg.Repaired}} {
			rep, err := crashsim.Validate(build.mod, crashsim.Options{
				Entry:     tg.Entry,
				MaxPoints: CrashSweepMaxPoints,
				MaxImages: CrashSweepMaxImages,
				StepLimit: CrashSweepStepLimit,
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
