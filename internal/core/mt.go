package core

import (
	"fmt"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
)

// ScheduleCrash pairs one explored interleaving with its post-repair
// crash-validation report.
type ScheduleCrash struct {
	// ID is the interleaving's replayable schedule id.
	ID string
	// Report is the crash sweep of the workload run under that
	// interleaving.
	Report *crashsim.Report
}

// MTResult is the outcome of the interleaving-aware workflow: explore →
// detect under every explored schedule → repair the union → re-explore →
// crash-validate every schedule.
type MTResult struct {
	// Exploration is the interleaving search over the original module;
	// ReExploration the search over the repaired one (nil when the
	// module was already clean under every explored schedule).
	Exploration   *schedule.Result
	ReExploration *schedule.Result
	// Before / After are the union detector verdicts: the counters
	// describe the default-schedule run, while Reports is the
	// class-deduplicated union across every explored interleaving — a
	// bug visible under any schedule is repaired, not just one the
	// default order happens to expose.
	Before *pmcheck.Result
	After  *pmcheck.Result
	// Fix describes the applied fixes (nil when Before was clean).
	Fix *Result
	// Crash holds one post-repair crash-validation report per explored
	// interleaving, in exploration order, when Options.CrashCheck is
	// set. All sweeps share one verdict cache: images that different
	// interleavings produce identically are judged once.
	Crash []ScheduleCrash
	// CrashPoints is the total number of crash points swept across all
	// schedules.
	CrashPoints int
}

// Fixed reports whether the module is clean after repair under every
// explored interleaving: no detector reports remain in the union, and —
// when crash validation ran — every crash schedule of every explored
// interleaving recovered cleanly.
func (r *MTResult) Fixed() bool {
	if !r.After.Clean() {
		return false
	}
	for _, c := range r.Crash {
		if !c.Report.Passed() {
			return false
		}
	}
	return true
}

// FinalExploration returns the exploration describing the module as it
// stands: the re-exploration when a repair ran, the original otherwise.
func (r *MTResult) FinalExploration() *schedule.Result {
	if r.ReExploration != nil {
		return r.ReExploration
	}
	return r.Exploration
}

// RunAndRepairMT is RunAndRepair for concurrent workloads. Instead of
// one trace it explores thread interleavings (bounded, with
// persistence-aware partial-order reduction — see internal/schedule),
// runs the detector under every explored schedule, repairs the union of
// all reports, and accepts the repair only if re-exploration finds every
// schedule clean and — with Options.CrashCheck set — the crash sweep of
// every explored interleaving passes. A runtime fault under any
// interleaving (deadlock, assertion, double join) is not a durability
// bug flush insertion can heal, so it surfaces as an error, before or
// after repair.
func RunAndRepairMT(mod *ir.Module, entry string, opts Options, args ...uint64) (out *MTResult, err error) {
	defer Guard("pipeline", &err)
	sp := opts.Obs
	ex, err := exploreModule(mod, entry, opts, "explore", args)
	if err != nil {
		return nil, err
	}
	out = &MTResult{Exploration: ex, Before: UnionCheck(ex)}
	if out.Before.Clean() {
		out.After = out.Before
		return crashValidateMT(mod, entry, opts, args, out)
	}

	// Repair the union. The default-schedule trace stands in for the
	// single-threaded pipeline's trace (with the default full-AA marks it
	// is consulted only to resolve report sites, which are
	// schedule-independent instruction ids).
	out.Fix, err = Repair(mod, ex.Trace, out.Before, opts)
	if err != nil {
		return nil, err
	}

	re, err := exploreModule(mod, entry, opts, "re-explore", args)
	if err != nil {
		return nil, fmt.Errorf("re-exploring repaired module: %w", err)
	}
	out.ReExploration = re
	out.After = UnionCheck(re)
	if sp != nil {
		sp.Add("revalidate.remaining_reports", int64(len(out.After.Reports)))
	}
	return crashValidateMT(mod, entry, opts, args, out)
}

// ExploreModule is the exploration phase alone: the bounded
// interleaving search plus the per-schedule detector, with the
// pipeline's limits and telemetry applied. Check and crash modes use it
// when they need verdicts without repairing. A runtime fault under any
// interleaving is an error, as in RunAndRepairMT.
func ExploreModule(mod *ir.Module, entry string, opts Options, args ...uint64) (*schedule.Result, error) {
	return exploreModule(mod, entry, opts, "explore", args)
}

// exploreModule runs one bounded interleaving search under a child span.
func exploreModule(mod *ir.Module, entry string, opts Options, span string, args []uint64) (*schedule.Result, error) {
	esp := opts.Obs.Start(span)
	defer esp.End()
	esp.SetAttr("entry", entry)
	ex, err := schedule.Explore(mod, entry, args, schedule.Options{
		MaxSchedules: opts.MaxSchedules,
		Interp:       interp.Options{StepLimit: opts.StepLimit, Deadline: opts.Deadline},
		Obs:          esp,
	})
	if err != nil {
		return nil, err
	}
	for _, r := range ex.Runs {
		if r.Err != nil {
			return nil, fmt.Errorf("schedule %s: @%s faulted: %w", r.ID, entry, r.Err)
		}
	}
	return ex, nil
}

// UnionCheck folds the per-schedule detector results of an exploration
// into one verdict: counters from the default-schedule run, reports
// class-deduplicated across every explored interleaving, thread/publish
// tallies maximized. It is the verdict the concurrent pipeline repairs
// and the one threaded check mode reports.
func UnionCheck(ex *schedule.Result) *pmcheck.Result {
	u := *ex.Runs[0].Check
	var all []*pmcheck.Report
	threads, publishes := 0, 0
	for _, r := range ex.Runs {
		all = append(all, r.Check.Reports...)
		if r.Check.Threads > threads {
			threads = r.Check.Threads
		}
		if r.Check.CrossThreadPublishes > publishes {
			publishes = r.Check.CrossThreadPublishes
		}
	}
	u.Reports = pmcheck.DedupeByClass(all)
	u.Threads = threads
	u.CrossThreadPublishes = publishes
	return &u
}

// CrashSweep crash-validates mod under every interleaving ex explored, in
// exploration order. Options.CrashCheck (which must be set) is resolved
// against entry, args and the pipeline's limits and span as RunAndRepair
// resolves it, and every sweep shares one verdict cache, so images that
// several interleavings produce identically are judged once. It returns
// one report per schedule and the total crash-point count.
func CrashSweep(mod *ir.Module, ex *schedule.Result, entry string, opts Options, args ...uint64) ([]ScheduleCrash, int, error) {
	copts := crashOpts(opts, entry, args)
	out := make([]ScheduleCrash, 0, len(ex.Runs))
	points := 0
	for _, run := range ex.Runs {
		round := *copts
		round.Schedule = run.Choices
		rep, err := crashsim.Validate(mod, round)
		if err != nil {
			return nil, 0, fmt.Errorf("crash validation under schedule %s: %w", run.ID, err)
		}
		out = append(out, ScheduleCrash{ID: run.ID, Report: rep})
		points += rep.Points
	}
	return out, points, nil
}

// crashValidateMT runs the optional crash sweep over every explored
// interleaving of the final module and attaches the reports.
func crashValidateMT(mod *ir.Module, entry string, opts Options, args []uint64, out *MTResult) (*MTResult, error) {
	if opts.CrashCheck == nil {
		return out, nil
	}
	crash, points, err := CrashSweep(mod, out.FinalExploration(), entry, opts, args...)
	if err != nil {
		return nil, err
	}
	out.Crash, out.CrashPoints = crash, points
	opts.Obs.Add("schedule.crash_points", int64(points))
	return out, nil
}
