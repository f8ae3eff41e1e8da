// Package core implements Hippocrates, the paper's contribution: an
// automated fixer for persistent-memory durability bugs that is guaranteed
// to "do no harm". It consumes a module, the PM bug-finder trace, and the
// detector's reports, and rewrites the module with the three safe fix
// species of §4.2:
//
//  1. intraprocedural fence insertion,
//  2. intraprocedural flush insertion,
//  3. the persistent subprogram transformation (interprocedural fixes),
//     placed by the alias-analysis hoisting heuristic of §4.3.
//
// Fix computation follows the paper's three phases: naive intraprocedural
// fixes, fix reduction, and heuristic hoisting.
package core

import (
	"fmt"
	"io"
	"sort"
	"time"

	"hippocrates/internal/alias"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// MarksMode selects how pointers are classified PM / not-PM for the
// hoisting heuristic (§6.1 evaluates both; they must agree).
type MarksMode int

// The marking strategies.
const (
	// FullAA derives marks from whole-program points-to facts.
	FullAA MarksMode = iota
	// TraceAA derives marks from the bug-finder trace alone.
	TraceAA
)

// Options configures the fixer. The zero value is the paper's default
// configuration (Full-AA marks, hoisting enabled, CLWB flushes).
type Options struct {
	Marks MarksMode
	// DisableHoisting restricts the fixer to intraprocedural fixes; this
	// is the RedisH-intra configuration of §6.3.
	DisableHoisting bool
	// DisableReduction turns off phase-2 fix reduction (same-line flush
	// merging and adjacent-duplicate elision) — the ablation knob for
	// measuring what the reduction phase buys.
	DisableReduction bool
	// FlushKind selects the inserted flush flavour (default CLWB).
	FlushKind ir.FlushKind
	// DebugScores, when non-nil, receives a line per heuristic candidate
	// (fix location and score) for diagnosis.
	DebugScores io.Writer
	// Obs, when non-nil, is the parent span the pipeline records its
	// phase spans, counters, and repair audit trail under. The nil
	// default disables all telemetry at the cost of one pointer check
	// per phase boundary.
	Obs *obs.Span
	// StepLimit bounds every interpreter run the pipeline makes (trace,
	// revalidate, crash validation); 0 keeps the interpreter's default.
	// Exceeding it surfaces as a typed *interp.LimitError.
	StepLimit int64
	// Deadline is the wall-clock bound for those runs (zero = none).
	Deadline time.Time
	// CrashCheck, when non-nil, enables the post-repair crash-schedule
	// validation stage: the repaired module is crash-injected at PM
	// event boundaries and its recovery entries must accept every
	// enumerated post-crash image (see internal/crashsim). Entry, args,
	// limits, and the obs span default to the pipeline's own.
	CrashCheck *crashsim.Options
	// MaxSchedules bounds the interleaving search of the concurrent
	// pipeline (RunAndRepairMT); 0 keeps schedule.DefaultMaxSchedules.
	// Ignored by the single-threaded pipeline.
	MaxSchedules int
	// SummaryStore, when non-nil, backs every static analysis the
	// pipeline runs with cached function summaries and alias
	// constraints, so repeated jobs over the same source family — and
	// StaticRepair's own before/after double analysis — replay instead
	// of recompute. Results are byte-identical either way.
	SummaryStore *static.Store
}

// FixKind classifies an applied fix.
type FixKind int

// The fix kinds.
const (
	FixIntraFlush FixKind = iota
	FixIntraFence
	FixIntraFlushFence
	FixInterproc
)

func (k FixKind) String() string {
	switch k {
	case FixIntraFlush:
		return "intraprocedural-flush"
	case FixIntraFence:
		return "intraprocedural-fence"
	case FixIntraFlushFence:
		return "intraprocedural-flush+fence"
	case FixInterproc:
		return "interprocedural"
	}
	return fmt.Sprintf("fixkind(%d)", int(k))
}

// Interprocedural reports whether the fix used the persistent subprogram
// transformation.
func (k FixKind) Interprocedural() bool { return k == FixInterproc }

// Fix describes one applied bug fix.
type Fix struct {
	Kind   FixKind
	Report *pmcheck.Report
	// AppliedAt is the store site (intraprocedural) or the transformed
	// call site (interprocedural).
	AppliedAt trace.Frame
	// HoistDepth is 0 for intraprocedural fixes, otherwise the number of
	// call-stack levels above the PM modification.
	HoistDepth int
	// Score is the heuristic score of the chosen location.
	Score int
	// Clones lists the persistent subprograms created or reused.
	Clones []string
}

func (f *Fix) String() string {
	s := fmt.Sprintf("%s fix for [%s at %s]", f.Kind, f.Report.Class(), f.Report.Store.Site())
	if f.Kind.Interprocedural() {
		s += fmt.Sprintf(" hoisted %d level(s) to %s", f.HoistDepth, f.AppliedAt)
	}
	return s
}

// Result summarizes a fixing run.
type Result struct {
	Fixes []*Fix
	// Module is the repaired module (the input module, mutated and
	// renumbered).
	Module *ir.Module
	// InstrsBefore / InstrsAfter measure code-size impact (§6.4).
	InstrsBefore int
	InstrsAfter  int
	// ClonesCreated counts persistent subprograms created (reuse does not
	// recount, §4.2.4).
	ClonesCreated int
	// ReducedFixes counts insertions elided by fix reduction (phase 2).
	ReducedFixes int
	// MarksName records the marking strategy used.
	MarksName string
}

// InterprocFixes returns how many fixes were interprocedural.
func (r *Result) InterprocFixes() int {
	n := 0
	for _, f := range r.Fixes {
		if f.Kind.Interprocedural() {
			n++
		}
	}
	return n
}

// Fixer is the Hippocrates engine bound to one module and trace.
type Fixer struct {
	opts  Options
	mod   *ir.Module
	an    *alias.Analysis
	marks *alias.Marks
	index map[string]map[int]*ir.Instr

	clones      map[*ir.Func]*ir.Func
	needsWork   map[*ir.Func]int // 0 unknown, 1 visiting, 2 yes, 3 no
	transSites  map[*ir.Instr]*ir.Func
	escapeCache map[*ir.Instr]bool

	// sp is the telemetry parent span (nil when disabled); cur is the
	// provenance of the plan currently being applied, consumed by the
	// low-level insertion helpers when they write audit entries.
	sp  *obs.Span
	cur *auditCtx

	result *Result
}

// auditCtx is the provenance attached to every audit entry an applying
// plan generates: the originating report and the planner's decision.
type auditCtx struct {
	report   *pmcheck.Report
	decision string
	why      string
	score    int
	depth    int
}

// audit writes one audit-trail entry for an action at instruction in,
// stamped with the current plan's provenance.
func (fx *Fixer) audit(action, mechanism string, in *ir.Instr) {
	if fx.sp == nil {
		return
	}
	fx.auditSite(action, mechanism, siteOf(in))
}

// auditSite is audit with an explicit site string (for actions — like
// cloning a whole function — that have no single instruction).
func (fx *Fixer) auditSite(action, mechanism, site string) {
	if fx.sp == nil {
		return
	}
	e := obs.AuditEntry{Action: action, Mechanism: mechanism, Site: site}
	if c := fx.cur; c != nil {
		e.ReportSite = c.report.Store.Site().String()
		e.ReportClass = c.report.Class().String()
		e.Decision = c.decision
		e.Why = c.why
		e.Score = c.score
		e.HoistDepth = c.depth
	}
	fx.sp.Audit(e)
}

// siteOf renders an instruction's exact location as
// file:func:block:index, where index is the instruction's position in
// its basic block at the time of the call.
func siteOf(in *ir.Instr) string {
	blk := in.Block()
	if blk == nil {
		return "<detached>"
	}
	idx := -1
	for i, x := range blk.Instrs {
		if x == in {
			idx = i
			break
		}
	}
	file := in.Loc.File
	if file == "" {
		file = "<generated>"
	}
	return fmt.Sprintf("%s:@%s:%s:%d", file, blk.Func().Name, blk.Name, idx)
}

// NewFixer analyzes the module and prepares a fixing session. The module
// must be the exact module (same instruction numbering) the trace was
// recorded against; it is mutated in place by Apply.
func NewFixer(mod *ir.Module, tr *trace.Trace, opts Options) *Fixer {
	asp := opts.Obs.Start("alias-analyze")
	var an *alias.Analysis
	if opts.SummaryStore != nil {
		an = alias.AnalyzeWithStore(mod, opts.SummaryStore.Constraints)
	} else {
		an = alias.Analyze(mod)
	}
	var marks *alias.Marks
	if opts.Marks == TraceAA {
		marks = alias.TraceMarks(an, mod, tr)
	} else {
		marks = alias.FullMarks(an)
	}
	asp.SetAttr("marks", marks.Name)
	asp.End()
	fx := &Fixer{
		opts:        opts,
		sp:          opts.Obs,
		mod:         mod,
		an:          an,
		marks:       marks,
		index:       make(map[string]map[int]*ir.Instr),
		clones:      make(map[*ir.Func]*ir.Func),
		needsWork:   make(map[*ir.Func]int),
		transSites:  make(map[*ir.Instr]*ir.Func),
		escapeCache: make(map[*ir.Instr]bool),
		result:      &Result{Module: mod, MarksName: marks.Name, InstrsBefore: mod.NumInstrs()},
	}
	for _, f := range mod.Funcs {
		byID := make(map[int]*ir.Instr, f.NumInstrs())
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				byID[in.ID] = in
			}
		}
		fx.index[f.Name] = byID
	}
	return fx
}

// resolve maps a trace frame to its instruction.
func (fx *Fixer) resolve(f trace.Frame) *ir.Instr {
	byID, ok := fx.index[f.Func]
	if !ok {
		return nil
	}
	return byID[f.InstrID]
}

// Repair is the whole-tool entry point: compute and apply fixes for every
// report, verify the module, and renumber. The input module is mutated.
// Internal panics (from the transform or the planner) are recovered into
// a *PanicError, never propagated.
func Repair(mod *ir.Module, tr *trace.Trace, res *pmcheck.Result, opts Options) (out *Result, err error) {
	defer guard("repair", &err)
	fx := NewFixer(mod, tr, opts)
	if err := fx.Apply(res.Reports); err != nil {
		return nil, err
	}
	return fx.Result(), nil
}

// Result returns the accumulated result.
func (fx *Fixer) Result() *Result { return fx.result }

// Apply computes fixes for the reports (phases 1–3) and applies them.
// Reports sharing a store site and bug class are merged first: a hot loop
// that drives one buggy store through many dynamic violations (or several
// call chains needing the same mechanisms) reaches the planner once, with
// the stack union preserved for the hoisting heuristic.
//
// Apply is the all-at-once composition of computePlans / applyPlan /
// finish; the incremental crash-revalidation path in the pipeline drives
// the three pieces itself so it can re-validate between fixes.
func (fx *Fixer) Apply(reports []*pmcheck.Report) error {
	plans, err := fx.computePlans(reports)
	if err != nil {
		return err
	}
	asp := fx.sp.Start("apply")
	defer asp.End()
	for _, p := range plans {
		if err := fx.applyPlan(p); err != nil {
			return err
		}
	}
	return fx.finish(asp)
}

// computePlans runs the planning phases (dedupe, per-report planning,
// deterministic ordering, fix reduction) under a "plan" span and returns
// the plans in application order.
func (fx *Fixer) computePlans(reports []*pmcheck.Report) ([]*plan, error) {
	psp := fx.sp.Start("plan")
	psp.Add("fix.reports.pre_dedupe", int64(len(reports)))
	reports = pmcheck.DedupeByClass(reports)
	psp.Add("fix.reports.post_dedupe", int64(len(reports)))
	plans := make([]*plan, 0, len(reports))
	for _, rep := range reports {
		p, err := fx.plan(rep)
		if err != nil {
			psp.End()
			return nil, err
		}
		plans = append(plans, p)
	}
	// Deterministic application order: by store site.
	sort.SliceStable(plans, func(i, j int) bool {
		a, b := plans[i].report.Key(), plans[j].report.Key()
		if a.Func != b.Func {
			return a.Func < b.Func
		}
		return a.InstrID < b.InstrID
	})
	if !fx.opts.DisableReduction {
		fx.reduceFlushGroups(plans)
	}
	for _, p := range plans {
		if p.hoist != nil {
			psp.Add("fix.plans.hoisted", 1)
		} else {
			psp.Add("fix.plans.intraprocedural", 1)
		}
	}
	psp.End()
	return plans, nil
}

// applyPlan applies one computed plan to the module. Plans hold
// *ir.Instr pointers (not IDs), so interleaving applications with
// renumbering — as incremental revalidation does — is safe.
func (fx *Fixer) applyPlan(p *plan) error { return fx.apply(p) }

// finish renumbers the mutated functions, verifies the repaired module,
// and publishes the fix counters under the apply span.
func (fx *Fixer) finish(asp *obs.Span) error {
	for _, f := range fx.mod.Funcs {
		f.Renumber()
	}
	fx.result.InstrsAfter = fx.mod.NumInstrs()
	if err := ir.Verify(fx.mod); err != nil {
		return fmt.Errorf("hippocrates: fixed module does not verify: %w", err)
	}
	asp.Add("fix.count", int64(len(fx.result.Fixes)))
	for _, f := range fx.result.Fixes {
		asp.Add("fix.by_mechanism."+f.Kind.String(), 1)
	}
	asp.Add("fix.reduced", int64(fx.result.ReducedFixes))
	asp.Add("fix.clones", int64(fx.result.ClonesCreated))
	asp.Add("fix.instrs.added", int64(fx.result.InstrsAfter-fx.result.InstrsBefore))
	asp.Add("alias.queries", fx.an.Queries())
	for _, f := range fx.result.Fixes {
		fx.sp.Observe("fix.hoist_depth", int64(f.HoistDepth))
	}
	return nil
}

// plan is the computed fix for one report before application.
type plan struct {
	report *pmcheck.Report
	// storeIn is the offending instruction (a store-like instruction —
	// store, ntstore, or an atomic write — or a call to builtin
	// memcpy/memset).
	storeIn *ir.Instr
	// hoist selects the interprocedural transformation; nil means
	// intraprocedural.
	hoist *candidate
	score int
	// why is the heuristic's reasoning for the chosen placement, carried
	// into the audit trail.
	why string
	// fenceAfter are the instructions after which a fence must be
	// inserted for fence-only needs.
	fenceAfter []*ir.Instr
	// groupLeader, when set to another plan, says this plan's flush was
	// reduced into the leader's (same static cache line, same block —
	// phase 2 fix reduction). groupFence on a leader requests the shared
	// trailing fence.
	groupLeader *plan
	groupFence  bool
}

func (fx *Fixer) plan(rep *pmcheck.Report) (*plan, error) {
	site := rep.Store.Site()
	in := fx.resolve(site)
	if in == nil {
		return nil, fmt.Errorf("hippocrates: cannot locate %s in module (was the module renumbered after tracing?)", site)
	}
	switch {
	case in.Op.IsStoreLike():
	case in.Op == ir.OpCall:
		if n := in.Callee.Name; n != "memcpy" && n != "memset" {
			return nil, fmt.Errorf("hippocrates: store event points at call to @%s", n)
		}
	default:
		return nil, fmt.Errorf("hippocrates: store event points at %s", ir.FormatInstr(in))
	}
	p := &plan{report: rep, storeIn: in}

	if rep.NeedFlush {
		best := fx.chooseCandidate(rep)
		p.score = best.score
		p.why = best.why
		if best.depth > 0 {
			p.hoist = &best
		}
	}
	if rep.NeedFence && p.hoist == nil && !rep.NeedFlush {
		p.why = "fence-only bug: fence inserted after the flush site(s) that covered the store"
	}
	if rep.NeedFence && p.hoist == nil {
		// Fence goes after every flush that covered the store (for
		// flush-needing bugs, after the flush we are about to insert —
		// handled at apply time; for fence-only bugs, after the existing
		// flush sites).
		if !rep.NeedFlush {
			for _, fs := range rep.FlushSites {
				fin := fx.resolve(fs)
				if fin == nil {
					return nil, fmt.Errorf("hippocrates: cannot locate flush site %s", fs)
				}
				p.fenceAfter = append(p.fenceAfter, fin)
			}
			if len(p.fenceAfter) == 0 {
				// Defensive: fence directly after the store.
				p.fenceAfter = append(p.fenceAfter, in)
			}
		}
	}
	return p, nil
}
