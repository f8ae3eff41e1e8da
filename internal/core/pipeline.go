package core

import (
	"fmt"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// PipelineResult is the outcome of the full trace→detect→fix→re-check
// workflow (Fig. 2 of the paper, Steps 1–4 plus validation).
type PipelineResult struct {
	// Trace is the bug-finder trace of the original module.
	Trace *trace.Trace
	// Before / After are the detector results pre- and post-repair.
	Before *pmcheck.Result
	After  *pmcheck.Result
	// Fix describes the applied fixes (nil when Before was already clean).
	Fix *Result
	// Final is the pipeline's run of the module it returns: the
	// revalidate run after a repair, the first run when nothing needed
	// fixing. It is nil when the pipeline never ran that module (a
	// replayed trace that was already clean).
	Final *Run
	// Crash is the crash-schedule validation report, when
	// Options.CrashCheck requested the stage (nil otherwise).
	Crash *crashsim.Report
	// CrashRounds holds the intermediate crash-validation reports of the
	// incremental path: with CrashCheck set and more than one fix to
	// apply, round i re-validates the module right after fix i+1 landed,
	// reusing the shared verdict cache (so each round mostly re-judges
	// only the images the new fix changed). Intermediate rounds commonly
	// fail — later fixes have not been applied yet — which is why Fixed
	// consults only the final report in Crash.
	CrashRounds []*crashsim.Report
}

// Fixed reports whether the module is clean after repair: no detector
// reports remain, and — when crash validation ran — every enumerated
// crash schedule recovered cleanly.
func (p *PipelineResult) Fixed() bool {
	return p.After.Clean() && (p.Crash == nil || p.Crash.Passed())
}

// Run is one traced, tracked execution of a module's entry as the
// pipeline makes it (default cost model, the pipeline's step limit): the
// trace, the detector's verdict on it, and the simulated time the run
// took. optimize.Options.Baseline takes it, so the pass does not repeat
// a run the pipeline just made.
type Run struct {
	Trace *trace.Trace
	Check *pmcheck.Result
	SimNs float64
}

// TraceAndCheck executes mod's entry function on the simulator under a
// "trace" child span of sp and returns the recorded PM trace, with the
// pipeline's resource limits applied to the interpreter run and the
// detector running on the run's own tracker as it executes; its verdict
// is published under a "detect" child span. As the paper does for trace
// generation (§5.1), the module is used as-is, unoptimized. The
// interpreter's run statistics (steps, per-opcode counts) and the
// trace's PM-event breakdown are published into the span's recorder (a
// nil span records nothing). Interpreter panics are recovered into a
// *PanicError.
func TraceAndCheck(sp *obs.Span, mod *ir.Module, entry string, opts Options, args ...uint64) (*Run, error) {
	d := pmcheck.NewDetector()
	run, err := traceModule(sp, mod, entry, opts, args, d)
	if err != nil {
		return nil, err
	}
	run.Check = d.ResultObs(sp)
	return run, nil
}

// traceModule runs mod's entry traced under a "trace" child span of sp,
// with d detecting online on the run's tracker, and returns the trace and
// the run's simulated time.
func traceModule(sp *obs.Span, mod *ir.Module, entry string, opts Options, args []uint64, d *pmcheck.Detector) (out *Run, err error) {
	defer Guard("trace", &err)
	tsp := sp.Start("trace")
	defer tsp.End()
	tsp.SetAttr("entry", entry)
	tr := &trace.Trace{Program: mod.Name}
	mach, err := interp.New(mod, interp.Options{
		Trace: tr, Detector: d, StepLimit: opts.StepLimit, Deadline: opts.Deadline,
	})
	if err != nil {
		return nil, err
	}
	_, err = mach.Run(entry, args...)
	mach.RecordObs(tsp)
	tsp.Add("trace.events", int64(len(tr.Events)))
	for k, n := range tr.KindCounts() {
		if n > 0 {
			tsp.Add("trace.event."+trace.Kind(k).String(), int64(n))
		}
	}
	if err != nil {
		return nil, fmt.Errorf("tracing @%s: %w", entry, err)
	}
	return &Run{Trace: tr, SimNs: mach.SimTime()}, nil
}

// RunAndRepair runs the whole Hippocrates workflow on mod, mutating it in
// place: trace the entry point, detect durability bugs, then RepairTrace
// the recorded trace — compute and apply fixes, re-trace and re-check to
// validate that the bugs are gone (the validation step of §6.1), and, with
// Options.CrashCheck set, crash-validate the repaired module. When
// opts.Obs is set, the phases record spans under it: trace, detect, then
// RepairTrace's. Panics from any phase are recovered into a *PanicError:
// the pipeline returns errors, it never takes the process down.
func RunAndRepair(mod *ir.Module, entry string, opts Options, args ...uint64) (out *PipelineResult, err error) {
	defer Guard("pipeline", &err)
	run, err := TraceAndCheck(opts.Obs, mod, entry, opts, args...)
	if err != nil {
		return nil, err
	}
	out, err = RepairTrace(mod, run.Trace, run.Check, entry, opts, args...)
	if err == nil && out.Final == nil {
		// Nothing needed fixing: the first run is also of the final module.
		out.Final = run
	}
	return out, err
}

// RepairTrace is the pipeline after its trace and detect steps: tr is a
// recorded run of mod's entry (traced here or loaded from disk) and before
// the detector's verdict on it. It repairs mod in place — interleaved with
// crash validation after each fix when Options.CrashCheck is set — then
// re-traces and re-checks the repaired module under a revalidate span, and
// finally runs the crash-schedule validation stage: with CrashCheck set,
// the module is crash-injected at every sampled PM event boundary and its
// recovery entries run on each feasible post-crash image (the report
// lands in PipelineResult.Crash; schedule failures are data, not an
// error). Spans under opts.Obs: plan, apply, revalidate (the second trace
// and detect), and crashsim. Panics are recovered into a *PanicError.
func RepairTrace(mod *ir.Module, tr *trace.Trace, before *pmcheck.Result, entry string, opts Options, args ...uint64) (out *PipelineResult, err error) {
	defer Guard("pipeline", &err)
	copts := crashOpts(opts, entry, args)
	out = &PipelineResult{Trace: tr, Before: before}
	if before.Clean() {
		out.After = before
		return crashValidate(mod, copts, out)
	}
	if copts != nil {
		err = repairIncremental(mod, tr, before, opts, copts, out)
	} else {
		out.Fix, err = Repair(mod, tr, before, opts)
	}
	if err != nil {
		return nil, err
	}
	rsp := opts.Obs.Start("revalidate")
	out.Final, err = TraceAndCheck(rsp, mod, entry, opts, args...)
	if err != nil {
		rsp.End()
		return nil, fmt.Errorf("re-tracing repaired module: %w", err)
	}
	out.After = out.Final.Check
	rsp.Add("revalidate.remaining_reports", int64(len(out.After.Reports)))
	rsp.End()
	return crashValidate(mod, copts, out)
}

// crashOpts resolves Options.CrashCheck against the pipeline's own
// entry, args, limits, and obs span (nil when the stage is off), and
// gives the run a verdict cache so the incremental rounds and the final
// validation share memoized recovery outcomes.
func crashOpts(opts Options, entry string, args []uint64) *crashsim.Options {
	if opts.CrashCheck == nil {
		return nil
	}
	copts := *opts.CrashCheck
	if copts.Entry == "" {
		copts.Entry = entry
	}
	if copts.Args == nil {
		copts.Args = args
	}
	if copts.Obs == nil {
		copts.Obs = opts.Obs
	}
	if copts.StepLimit == 0 {
		copts.StepLimit = opts.StepLimit
	}
	if copts.Deadline.IsZero() {
		copts.Deadline = opts.Deadline
	}
	if copts.Cache == nil {
		copts.Cache = crashsim.NewVerdictCache()
	}
	return &copts
}

// repairIncremental is Repair interleaved with crash validation: after
// each applied fix but the last, the partially repaired module is
// crash-validated with the shared verdict cache, so the caller gets a
// per-fix account of how the schedule failures shrink. (The last fix's
// validation is the pipeline's final crashValidate stage.) Verdict keys
// hash the recovery-reachable code along with the image, so a fix that
// leaves recovery code alone reuses every verdict of an image it leaves
// unchanged, and one that rewrites it simply misses.
func repairIncremental(mod *ir.Module, tr *trace.Trace, res *pmcheck.Result, opts Options,
	copts *crashsim.Options, out *PipelineResult) (err error) {
	defer Guard("repair", &err)
	fx := NewFixer(mod, tr, opts)
	plans, err := fx.computePlans(res.Reports)
	if err != nil {
		return err
	}
	asp := fx.sp.Start("apply")
	defer asp.End()
	for i, p := range plans {
		if err := fx.apply(p); err != nil {
			return err
		}
		if i == len(plans)-1 {
			break
		}
		round := *copts
		round.Log = nil // a partially repaired module legitimately fails
		rep, rerr := crashsim.Validate(mod, round)
		if rerr != nil {
			return fmt.Errorf("crash validation after fix %d: %w", i+1, rerr)
		}
		out.CrashRounds = append(out.CrashRounds, rep)
	}
	if err := fx.finish(asp); err != nil {
		return err
	}
	out.Fix = fx.Result()
	return nil
}

// crashValidate runs the optional crash-schedule validation stage on the
// (possibly just repaired) module and attaches the report.
func crashValidate(mod *ir.Module, copts *crashsim.Options, out *PipelineResult) (*PipelineResult, error) {
	if copts == nil {
		return out, nil
	}
	rep, err := crashsim.Validate(mod, *copts)
	if err != nil {
		return nil, fmt.Errorf("crash validation: %w", err)
	}
	out.Crash = rep
	return out, nil
}
