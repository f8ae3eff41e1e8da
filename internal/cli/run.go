package cli

import (
	"encoding/json"
	"fmt"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// FixDoc is one applied fix in API form.
type FixDoc struct {
	Kind        string   `json:"kind"`
	ReportSite  string   `json:"report_site"`
	ReportClass string   `json:"report_class"`
	AppliedAt   string   `json:"applied_at"`
	HoistDepth  int      `json:"hoist_depth,omitempty"`
	Score       int      `json:"score,omitempty"`
	Clones      []string `json:"clones,omitempty"`
}

// LintDoc is one static over-persistence diagnostic in API form.
type LintDoc struct {
	// Kind is the lint class: redundant-flush, redundant-fence, or
	// flush-after-ntstore.
	Kind string `json:"kind"`
	// Site locates the instruction as loc:@func:block.
	Site string `json:"site"`
}

// lintDocs renders static lints for the wire, preserving the analyzer's
// deterministic order.
func lintDocs(lints []*static.Lint) []LintDoc {
	out := make([]LintDoc, 0, len(lints))
	for _, l := range lints {
		out = append(out, LintDoc{
			Kind: l.Kind.String(),
			Site: fmt.Sprintf("%s:@%s:%s", l.Site.Loc, l.Site.Func, l.Block),
		})
	}
	return out
}

// Response is the outcome of one Run, shared between the commands and
// the hippocratesd API. The exported, json-tagged fields are the wire
// contract: every one is a deterministic function of the Request (no
// wall times, no absolute addresses beyond the interpreter's own
// deterministic layout), struct fields marshal in declaration order, and
// slices are ordered by the pipeline's deterministic phases — so equal
// requests marshal to byte-identical JSON, pinned by the golden-file
// tests in this package. Fields tagged json:"-" carry the live artifacts
// in-process callers (the commands' printing paths) still need.
type Response struct {
	Mode    string `json:"mode"`
	Program string `json:"program"`
	Entry   string `json:"entry"`
	Static  bool   `json:"static,omitempty"`

	// Detection outcome. BugsBefore/SitesBefore describe the program as
	// submitted; Reports carries the detector's per-bug rendering.
	// BugsAfter is meaningful in repair mode (post-repair re-check).
	BugsBefore  int      `json:"bugs_before"`
	SitesBefore int      `json:"sites_before"`
	BugsAfter   int      `json:"bugs_after"`
	Reports     []string `json:"reports"`

	// Fixed is the mode's headline verdict: repair — the repaired module
	// is clean (and crash-validated, when requested); check — the
	// program was already clean; crash — every schedule recovered.
	Fixed bool `json:"fixed"`

	// Repair outcome (repair mode with bugs found).
	Fixes        []FixDoc `json:"fixes,omitempty"`
	InstrsBefore int      `json:"instrs_before,omitempty"`
	InstrsAfter  int      `json:"instrs_after,omitempty"`
	Clones       int      `json:"clones,omitempty"`
	Reduced      int      `json:"reduced,omitempty"`
	Marks        string   `json:"marks,omitempty"`
	// RepairedIR is the repaired module in textual IR form.
	RepairedIR string `json:"repaired_ir,omitempty"`
	// Audit is the repair-provenance trail: every insertion (or
	// deliberate non-insertion) mapped to its report and heuristic
	// decision.
	Audit []*obs.AuditEntry `json:"audit"`

	// Lints are the static analyzer's over-persistence diagnostics
	// (redundant flush/fence, flush-after-ntstore) for the run's final
	// module, whenever static analysis ran: static check and repair
	// modes, and any mode with Optimize set (where they are the
	// residue the pass could not prove removable). Always present;
	// empty when no static analysis was involved.
	Lints []LintDoc `json:"lints"`

	// Optimize is the repair-to-optimize outcome (Request.Optimize):
	// every candidate edit with its origin, decision, proof, and
	// measured savings. OptimizedIR is the module after accepted edits.
	Optimize    *optimize.Result `json:"optimize,omitempty"`
	OptimizedIR string           `json:"optimized_ir,omitempty"`

	// Crash validation outcome: the final report, plus the per-round
	// reports of incremental revalidation (round i ran right after fix
	// i+1 landed; intermediate rounds legitimately fail).
	Crash       *crashsim.ReportDoc   `json:"crash,omitempty"`
	CrashRounds []*crashsim.ReportDoc `json:"crash_rounds,omitempty"`

	// Schedules summarizes the interleaving exploration of a Threads
	// run; CrashBySchedule carries the per-interleaving crash sweeps
	// (repair mode post-repair, crash mode on the program as given).
	Schedules       *ScheduleDoc       `json:"schedules,omitempty"`
	CrashBySchedule []ScheduleCrashDoc `json:"crash_by_schedule,omitempty"`

	// Live artifacts for in-process callers; never serialized.

	// Module is the (possibly repaired) module.
	Module *ir.Module `json:"-"`
	// Fix is the applied repair of repair mode, whichever pipeline ran
	// (nil when the program was already clean).
	Fix *core.Result `json:"-"`
	// Pipeline / StaticResult is the raw pipeline outcome of repair mode
	// (exactly one is set, by Static).
	Pipeline     *core.PipelineResult       `json:"-"`
	StaticResult *core.StaticPipelineResult `json:"-"`
	// Trace / Check / StaticCheck are check mode's raw outcomes.
	Trace       *trace.Trace    `json:"-"`
	Check       *pmcheck.Result `json:"-"`
	StaticCheck *static.Result  `json:"-"`
	// CrashReport is crash mode's raw report.
	CrashReport *crashsim.Report `json:"-"`
	// MT is the raw interleaving-aware repair outcome (Threads repair
	// mode); Exploration the raw search of check/crash Threads modes.
	MT          *core.MTResult   `json:"-"`
	Exploration *schedule.Result `json:"-"`

	// final is the pipeline's own run of the module it returns, when the
	// mode made one (single-threaded check and repair): optimize's
	// baseline.
	final *core.Run
}

// EncodeJSON renders the response's wire form: compact, deterministic,
// newline-terminated. It is json.Marshal's output, whose spare capacity
// almost always takes the newline, so an encode allocates about the
// response's length once (TestEncodeJSONBytes). The daemon's reply, its
// response cache and its job documents all carry these bytes; the golden
// files store them indented and compare them compacted.
func (r *Response) EncodeJSON() ([]byte, error) {
	data, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// Run validates the request, compiles its source, and executes the
// requested pipeline, recording phase spans (and the audit trail) under
// root. It is the single entrypoint behind hippocrates, pmcheck,
// pmvm -crash, and the hippocratesd job runner.
func Run(q *Request, root *obs.Span) (*Response, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mod, err := CompileRequest(q, root)
	if err != nil {
		return nil, err
	}
	return RunModule(q, mod, root)
}

// CompileRequest builds the request's module: pmc source is compiled,
// ".pmir" programs are parsed as textual IR. Either way the module is
// verified here, where it enters the pipeline (lang.Compile verifies
// its own output), so no later layer sees a module ir.Verify rejects: a
// malformed one is an input error carrying the verifier's message.
// Front-end telemetry lands under root.
func CompileRequest(q *Request, root *obs.Span) (*ir.Module, error) {
	if err := q.Validate(); err != nil {
		return nil, err
	}
	if q.IsIR() {
		psp := root.Start("parse-ir")
		defer psp.End()
		m, err := ir.ParseModule(q.Source)
		if err != nil {
			return nil, err
		}
		psp.Add("ir.instrs", int64(m.NumInstrs()))
		if err := ir.Verify(m); err != nil {
			return nil, fmt.Errorf("ir: malformed module: %w", err)
		}
		return m, nil
	}
	return lang.CompileObs(q.Program, q.Source, root)
}

// RunModule is Run for a pre-compiled module (the daemon hands a job its
// own fresh compile or a private clone of a memoized one). The module is
// mutated in place by repair mode. A panic in any layer, guarded or not,
// fails the request with a *core.PanicError.
func RunModule(q *Request, mod *ir.Module, root *obs.Span) (_ *Response, err error) {
	defer core.Guard("run", &err)
	if err := q.Validate(); err != nil {
		return nil, err
	}
	root.SetAttr("program", q.Program)
	root.SetAttr("mode", q.Mode)
	root.SetAttr("entry", q.Entry)
	resp := &Response{
		Mode: q.Mode, Program: q.Program, Entry: q.Entry, Static: q.Static,
		Reports: []string{}, Audit: []*obs.AuditEntry{}, Lints: []LintDoc{},
		Module: mod,
	}
	opts := q.coreOptions()
	opts.Obs = root
	if q.TimeoutMS > 0 {
		opts.Deadline = time.Now().Add(time.Duration(q.TimeoutMS) * time.Millisecond)
	}

	switch q.Mode {
	case ModeRepair:
		switch {
		case q.Static:
			err = runStaticRepair(q, mod, opts, resp)
		case q.Threads:
			err = runRepairMT(q, mod, opts, resp)
		default:
			err = runRepair(q, mod, opts, resp)
		}
	case ModeCheck:
		switch {
		case q.Static:
			err = runStaticCheck(q, mod, root, resp)
		case q.Threads:
			err = runCheckMT(q, mod, opts, resp)
		default:
			err = runCheck(q, mod, opts, resp)
		}
	case ModeCrash:
		if q.Threads {
			err = runCrashMT(q, mod, opts, resp)
		} else {
			err = runCrash(q, mod, opts, resp)
		}
	}
	if err != nil {
		return nil, err
	}
	// Repair-to-optimize rides after the mode's own pipeline: on the
	// repaired module when repair succeeded, on the program as given in
	// check mode (the proof preserves the detectors' verdicts either
	// way, so a buggy program stays exactly as buggy).
	if q.Optimize && (q.Mode == ModeCheck || resp.Fixed) {
		if err := runOptimize(q, mod, opts, resp); err != nil {
			return nil, err
		}
	}
	resp.Audit = append(resp.Audit, root.Recorder().AuditTrail()...)
	return resp, nil
}

func runOptimize(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	res, err := optimize.Optimize(mod, optimize.Options{
		Entry:     q.Entry,
		Args:      q.Args,
		Invariant: q.Invariant,
		Recovery:  q.Recovery,
		MaxPoints: q.CrashPoints,
		MaxImages: q.CrashImages,
		Workers:   q.CrashWorkers,
		StepLimit: q.StepLimit,
		Deadline:  opts.Deadline,
		Baseline:  resp.final,
		Cache:     q.CrashCache,
		Obs:       opts.Obs,
		Log:       q.CrashLog,
	})
	if err != nil {
		return err
	}
	resp.Optimize = res
	resp.Lints = lintDocs(res.FinalLints)
	if res.Applied() > 0 {
		resp.OptimizedIR = ir.Print(mod)
	}
	return nil
}

func runRepair(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	var res *core.PipelineResult
	var err error
	if tr := q.ReplayTrace; tr != nil {
		res, err = core.RepairTrace(mod, tr, pmcheck.CheckObs(opts.Obs, tr), q.Entry, opts, q.Args...)
	} else {
		res, err = core.RunAndRepair(mod, q.Entry, opts, q.Args...)
	}
	if err != nil {
		return err
	}
	resp.Pipeline = res
	resp.final = res.Final
	resp.BugsBefore = len(res.Before.Reports)
	resp.SitesBefore = res.Before.UniqueSites()
	resp.BugsAfter = len(res.After.Reports)
	for _, r := range res.Before.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.Fixed()
	if res.Fix != nil {
		fillFixResult(resp, res.Fix)
		resp.RepairedIR = ir.Print(mod)
	}
	resp.Crash = res.Crash.Doc()
	for _, round := range res.CrashRounds {
		resp.CrashRounds = append(resp.CrashRounds, round.Doc())
	}
	return nil
}

func runStaticRepair(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	res, err := core.StaticRepair(mod, q.Entry, opts)
	if err != nil {
		return err
	}
	resp.StaticResult = res
	resp.BugsBefore = len(res.Before.Reports)
	resp.SitesBefore = res.Before.UniqueSites()
	resp.BugsAfter = len(res.After.Reports)
	for _, r := range res.Before.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.After.Clean()
	resp.Lints = lintDocs(res.After.Lints)
	if res.Fix != nil {
		fillFixResult(resp, res.Fix)
		resp.RepairedIR = ir.Print(mod)
	}
	return nil
}

func runCheck(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	run, err := core.TraceAndCheck(opts.Obs, mod, q.Entry, opts, q.Args...)
	if err != nil {
		return err
	}
	res := run.Check
	resp.final = run
	resp.Trace = run.Trace
	resp.Check = res
	resp.BugsBefore = len(res.Reports)
	resp.SitesBefore = res.UniqueSites()
	for _, r := range res.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.Clean()
	return nil
}

func runStaticCheck(q *Request, mod *ir.Module, root *obs.Span, resp *Response) error {
	res, _, err := static.AnalyzeObsStore(mod, q.Entry, q.SummaryStore, root)
	if err != nil {
		return err
	}
	resp.StaticCheck = res
	resp.Lints = lintDocs(res.Lints)
	resp.BugsBefore = len(res.Reports)
	resp.SitesBefore = res.UniqueSites()
	for _, r := range res.Reports {
		resp.Reports = append(resp.Reports, r.String())
	}
	resp.Fixed = res.Clean()
	return nil
}

func runCrash(q *Request, mod *ir.Module, opts core.Options, resp *Response) error {
	copts := *opts.CrashCheck
	copts.Obs = opts.Obs
	copts.Deadline = opts.Deadline
	rep, err := crashsim.Validate(mod, copts)
	if err != nil {
		return err
	}
	resp.CrashReport = rep
	resp.Crash = rep.Doc()
	resp.Fixed = rep.Passed()
	return nil
}

// fillFixResult publishes a fixer result into the response.
func fillFixResult(resp *Response, fix *core.Result) {
	resp.Fix = fix
	resp.InstrsBefore = fix.InstrsBefore
	resp.InstrsAfter = fix.InstrsAfter
	resp.Clones = fix.ClonesCreated
	resp.Reduced = fix.ReducedFixes
	resp.Marks = fix.MarksName
	for _, f := range fix.Fixes {
		resp.Fixes = append(resp.Fixes, FixDoc{
			Kind:        f.Kind.String(),
			ReportSite:  f.Report.Store.Site().String(),
			ReportClass: f.Report.Class().String(),
			AppliedAt:   f.AppliedAt.String(),
			HoistDepth:  f.HoistDepth,
			Score:       f.Score,
			Clones:      f.Clones,
		})
	}
}

// FixSummaryLines renders the -show-fixes listing.
func (r *Response) FixSummaryLines() []string {
	if r.Fix == nil {
		return nil
	}
	out := make([]string, len(r.Fix.Fixes))
	for i, fx := range r.Fix.Fixes {
		out[i] = fmt.Sprintf("  [%d] %s", i+1, fx)
	}
	return out
}
