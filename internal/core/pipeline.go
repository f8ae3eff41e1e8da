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

// TraceModule executes mod's entry function on the simulator and returns
// the recorded PM trace. As the paper does for trace generation (§5.1),
// the module is used as-is, unoptimized.
func TraceModule(mod *ir.Module, entry string, args ...uint64) (*trace.Trace, error) {
	return TraceModuleObs(nil, mod, entry, args...)
}

// TraceModuleObs is TraceModule under a "trace" child span of sp: the
// interpreter's run statistics (steps, per-opcode counts) and the trace's
// PM-event breakdown are published into the span's recorder. A nil span
// records nothing.
func TraceModuleObs(sp *obs.Span, mod *ir.Module, entry string, args ...uint64) (*trace.Trace, error) {
	return TraceModuleOpts(sp, mod, entry, Options{}, args...)
}

// TraceModuleOpts is TraceModuleObs with the pipeline's resource
// limits applied to the interpreter run. Interpreter panics are
// recovered into a *PanicError.
func TraceModuleOpts(sp *obs.Span, mod *ir.Module, entry string, opts Options, args ...uint64) (out *trace.Trace, err error) {
	defer guard("trace", &err)
	tsp := sp.Start("trace")
	defer tsp.End()
	tsp.SetAttr("entry", entry)
	tr := &trace.Trace{Program: mod.Name}
	mach, err := interp.New(mod, interp.Options{
		Trace: tr, StepLimit: opts.StepLimit, Deadline: opts.Deadline,
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
	return tr, nil
}

// RunAndRepair runs the whole Hippocrates workflow on mod, mutating it in
// place: trace the entry point, detect durability bugs, compute and apply
// fixes, then re-trace and re-check to validate that the bugs are gone
// (the validation step of §6.1). With Options.CrashCheck set, a fourth
// stage crash-injects the repaired module at every sampled PM event
// boundary and runs its recovery entries on each feasible post-crash
// image (the report lands in PipelineResult.Crash; schedule failures are
// data, not an error). When opts.Obs is set, the phases record spans
// under it: trace, detect, plan, apply, a revalidate span whose children
// are the second trace and detect, and crashsim. Panics from any phase
// are recovered into a *PanicError: the pipeline returns errors, it
// never takes the process down.
func RunAndRepair(mod *ir.Module, entry string, opts Options, args ...uint64) (out *PipelineResult, err error) {
	defer guard("pipeline", &err)
	sp := opts.Obs
	copts := crashOpts(opts, entry, args)
	tr, err := TraceModuleOpts(sp, mod, entry, opts, args...)
	if err != nil {
		return nil, err
	}
	res := pmcheck.CheckObs(sp, tr)
	out = &PipelineResult{Trace: tr, Before: res}
	if res.Clean() {
		out.After = res
		return crashValidate(mod, copts, out)
	}
	if copts != nil {
		err = repairIncremental(mod, tr, res, opts, copts, out)
	} else {
		out.Fix, err = Repair(mod, tr, res, opts)
	}
	if err != nil {
		return nil, err
	}
	rsp := sp.Start("revalidate")
	tr2, err := TraceModuleOpts(rsp, mod, entry, opts, args...)
	if err != nil {
		rsp.End()
		return nil, fmt.Errorf("re-tracing repaired module: %w", err)
	}
	out.After = pmcheck.CheckObs(rsp, tr2)
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
// validation is the pipeline's final crashValidate stage.) The cache is
// reset whenever a fix mutates code reachable from a recovery entry —
// memoized verdicts describe recovery code that no longer exists then —
// and survives otherwise: image hashes are content-addressed, so the
// workload-side changes each fix makes simply hash to new keys.
func repairIncremental(mod *ir.Module, tr *trace.Trace, res *pmcheck.Result, opts Options,
	copts *crashsim.Options, out *PipelineResult) (err error) {
	defer guard("repair", &err)
	fx := NewFixer(mod, tr, opts)
	plans, err := fx.computePlans(res.Reports)
	if err != nil {
		return err
	}
	asp := fx.sp.Start("apply")
	defer asp.End()
	reach := recoveryReachable(mod, copts)
	for i, p := range plans {
		if err := fx.applyPlan(p); err != nil {
			return err
		}
		if copts.Cache != nil && planTouchesRecovery(p, reach) {
			copts.Cache.Reset()
			// The fix may have made new code (clones) recovery-reachable.
			reach = recoveryReachable(mod, copts)
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

// recoveryReachable returns the names of the functions reachable (via
// static calls) from the configured recovery entries — the code whose
// mutation invalidates cached verdicts.
func recoveryReachable(mod *ir.Module, copts *crashsim.Options) map[string]bool {
	inv, rec := copts.Invariant, copts.Recovery
	if inv == "" {
		inv = "invariant_check" // Validate's own defaults
	}
	if rec == "" {
		rec = "crash_check"
	}
	entries := make([]string, 0, 2)
	for _, name := range []string{inv, rec} {
		if name != "-" {
			entries = append(entries, name)
		}
	}
	reach := make(map[string]bool)
	var walk func(name string)
	walk = func(name string) {
		if reach[name] {
			return
		}
		fn := mod.Func(name)
		if fn == nil || fn.IsDecl() {
			return
		}
		reach[name] = true
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if (in.Op == ir.OpCall || in.Op == ir.OpSpawn) && in.Callee != nil {
					walk(in.Callee.Name)
				}
			}
		}
	}
	for _, e := range entries {
		walk(e)
	}
	return reach
}

// planTouchesRecovery reports whether applying p mutated any function in
// reach (the recovery-reachable set computed before the application).
func planTouchesRecovery(p *plan, reach map[string]bool) bool {
	touched := func(in *ir.Instr) bool {
		if in == nil {
			return false
		}
		blk := in.Block()
		return blk != nil && reach[blk.Func().Name]
	}
	if touched(p.storeIn) {
		return true
	}
	for _, fin := range p.fenceAfter {
		if touched(fin) {
			return true
		}
	}
	if p.hoist != nil && touched(p.hoist.callIn) {
		return true
	}
	if p.groupLeader != nil && touched(p.groupLeader.storeIn) {
		return true
	}
	return false
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
