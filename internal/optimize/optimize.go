// Package optimize is the repair-to-optimize pass (§7's "performance
// diagnostics", promoted to a transformation): it consumes the static
// analyzer's redundancy lints and the workload trace's dynamic
// redundancy evidence, proposes flush/fence-eliminating edits — delete
// a provably redundant flush or fence, coalesce two flushes of one
// cache line, sink a fence into the next fence that covers it — and
// accepts each edit only after proving the edited program
// indistinguishable from the original under every observation the
// repair pipeline itself is judged by:
//
//   - the workload's return value,
//   - the durable PM state at every durability point (content hash of
//     the committed image plus the pending store sequences),
//   - the dynamic (pmcheck) and static detector report multisets —
//     an optimization must not create, destroy, or reclassify a bug,
//   - and, when the module declares recovery entries, crashsim verdict
//     identity: both builds are crash-injected at corresponding PM
//     events (aligned by per-kind ordinal, so deleting flush/fence
//     events cannot shift the comparison) and must fail the exact same
//     schedules the exact same way.
//
// The pass is greedy: candidates are applied one at a time, re-measured,
// and kept only when the whole proof holds; a rejected edit is undone
// and recorded in the audit trail with the reason — "first, do no harm"
// applies to performance surgery exactly as it does to bug fixing.
package optimize

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/static"
)

// Options configures one optimization pass.
type Options struct {
	// Entry is the workload entrypoint (default "main"); Args its
	// integer arguments.
	Entry string
	Args  []uint64
	// Invariant and Recovery name the recovery entries, as in
	// crashsim.Options: "" for crashsim's defaults, "-" to disable one.
	// The pass proves crashsim verdict identity when either is defined.
	Invariant string
	Recovery  string
	// MaxPoints bounds the aligned crash points per verdict-identity
	// check (0 = crashsim.DefaultMaxPoints); MaxImages and Workers are
	// passed through to crashsim.
	MaxPoints int
	MaxImages int
	Workers   int
	// StepLimit bounds every interpreter run the pass makes; Deadline,
	// when non-zero, bounds them and every crashsim validation by wall
	// clock. Past it, the pass fails with the interpreter's deadline
	// *interp.LimitError.
	StepLimit int64
	Deadline  time.Time
	// Baseline, when non-nil, is the caller's own run of mod exactly as
	// passed in, made with the same entry, args and step limit under the
	// default cost model (core.TraceAndCheck makes such runs). The pass
	// takes its trace, detector verdict and simulated time instead of
	// running the module again. It runs the module only when a candidate
	// needs the rest of the baseline (return value, PM event log and
	// durability-point signatures).
	Baseline *core.Run
	// Cache, when non-nil, carries crashsim recovery verdicts across
	// candidate validations (and across a preceding repair run).
	Cache *crashsim.VerdictCache
	// Obs receives an "optimize" child span, the optimize.* counters,
	// and one audit entry per candidate edit (applied or rejected).
	Obs *obs.Span
	// Log, when non-nil, receives a line per candidate decision.
	Log io.Writer
}

// EditKind classifies a candidate edit.
type EditKind int

const (
	// EditDeleteFlush removes a flush that never transitions a store.
	EditDeleteFlush EditKind = iota
	// EditDeleteFence removes a fence that never drains a store.
	EditDeleteFence
	// EditCoalesceFlush removes the earlier of two flushes of the same
	// cache line with no fence or call between them; the survivor
	// flushes both flushes' stores.
	EditCoalesceFlush
	// EditSinkFence removes a fence that is followed by another fence
	// with no store, flush, or call between them; the later fence
	// drains everything the earlier one would have.
	EditSinkFence
)

// MarshalJSON renders the kind as its string name — the wire contract
// (cli Response, server schema) names edit kinds, not enum ordinals.
func (k EditKind) MarshalJSON() ([]byte, error) {
	return json.Marshal(k.String())
}

func (k EditKind) String() string {
	switch k {
	case EditDeleteFlush:
		return "delete-flush"
	case EditDeleteFence:
		return "delete-fence"
	case EditCoalesceFlush:
		return "coalesce-flush"
	case EditSinkFence:
		return "sink-fence"
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// Edit is one candidate edit and its outcome.
type Edit struct {
	Kind EditKind `json:"kind"`
	// Func / Site / Loc locate the deleted instruction: Site is
	// file:func:block:index at decision time, Loc the source location.
	Func string `json:"func"`
	Site string `json:"site"`
	Loc  string `json:"loc,omitempty"`
	// Origin says where the candidate came from: "static-lint",
	// "trace-evidence", or "scan".
	Origin string `json:"origin"`
	// Into is the surviving partner site for coalesce/sink edits.
	Into string `json:"into,omitempty"`
	// Accepted reports whether the edit survived the harmlessness
	// proof; Reason is the proof summary or the rejection cause.
	Accepted bool   `json:"accepted"`
	Reason   string `json:"reason"`
	// SavedNs is the measured simulated-time reduction of an accepted
	// edit (relative to the build with all earlier accepted edits).
	SavedNs float64 `json:"saved_ns,omitempty"`
}

func (e *Edit) String() string {
	verdict := "rejected"
	if e.Accepted {
		verdict = fmt.Sprintf("applied, -%.1fns", e.SavedNs)
	}
	s := fmt.Sprintf("%s at %s [%s]: %s (%s)", e.Kind, e.Site, e.Origin, verdict, e.Reason)
	if e.Into != "" {
		s += " into " + e.Into
	}
	return s
}

// Result is the outcome of one optimization pass.
type Result struct {
	Entry string `json:"entry"`
	// Candidates counts proposed edits; Deleted / Merged / Sunk count
	// accepted edits by shape (Deleted covers both flush and fence
	// deletion); Rejected counts edits the proof refused.
	Candidates int `json:"candidates"`
	Deleted    int `json:"deleted"`
	Merged     int `json:"merged"`
	Sunk       int `json:"sunk"`
	Rejected   int `json:"rejected"`
	// SimNsBefore / SimNsAfter are the workload's simulated time under
	// pmem.CostModel before the first and after the last accepted edit.
	SimNsBefore float64 `json:"sim_ns_before"`
	SimNsAfter  float64 `json:"sim_ns_after"`
	// CrashsimProven reports whether the module declares recovery
	// entries, so every accepted edit carried a crashsim
	// verdict-identity proof over CrashPoints aligned crash points (in
	// addition to the run/report identity proof that always applies).
	CrashsimProven bool `json:"crashsim_proven"`
	CrashPoints    int  `json:"crash_points,omitempty"`
	// Edits lists every candidate in decision order.
	Edits []*Edit `json:"edits,omitempty"`

	// FinalLints are the static analyzer's remaining over-persistence
	// lints on the final (post-edit) build — what the pass could not
	// prove removable. In-process artifact; the CLI renders it.
	FinalLints []*static.Lint `json:"-"`
}

// Applied counts accepted edits.
func (r *Result) Applied() int { return r.Deleted + r.Merged + r.Sunk }

// SavedNs is the total measured simulated-time reduction.
func (r *Result) SavedNs() float64 { return r.SimNsBefore - r.SimNsAfter }

// Summary renders the result for CLI output.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimize: %d candidate(s): %d deleted, %d coalesced, %d sunk, %d rejected\n",
		r.Candidates, r.Deleted, r.Merged, r.Sunk, r.Rejected)
	if r.Applied() > 0 {
		pct := 0.0
		if r.SimNsBefore > 0 {
			pct = 100 * r.SavedNs() / r.SimNsBefore
		}
		fmt.Fprintf(&b, "optimize: simulated time %.1fns -> %.1fns (-%.1f%%)\n",
			r.SimNsBefore, r.SimNsAfter, pct)
	}
	if r.Candidates > 0 {
		if r.CrashsimProven {
			fmt.Fprintf(&b, "optimize: harmlessness proven by run/report identity and crashsim verdict identity at %d aligned crash point(s)\n", r.CrashPoints)
		} else {
			b.WriteString("optimize: harmlessness proven by run/report identity (module declares no recovery entries, crashsim skipped)\n")
		}
	}
	return b.String()
}

// Optimize proposes and proves flush/fence-eliminating edits on mod,
// mutating it in place (rejected edits are undone). The module must
// execute its workload cleanly; the usual flow optimizes either a
// repaired module or one the detectors already pass.
func Optimize(mod *ir.Module, opts Options) (*Result, error) {
	entry := opts.Entry
	if entry == "" {
		entry = "main"
	}
	sp := opts.Obs.Start("optimize")
	defer sp.End()
	sp.SetAttr("entry", entry)

	res := &Result{Entry: entry}

	// optimize.baseline_runs counts the runs the baseline cost: none when
	// the caller's run serves and no candidate needs more of it.
	baselineRuns := int64(0)
	defer func() { sp.Add("optimize.baseline_runs", baselineRuns) }()
	// Every run of the pass is of this module, one at a time, so they
	// share one detector.
	det := pmcheck.NewDetector()
	var base *progSig
	var err error
	if b := opts.Baseline; b != nil {
		base = &progSig{simNs: b.SimNs, tr: b.Trace, check: b.Check, dyn: dynSig(b.Check)}
		err = base.analyze(mod, entry, sp)
	} else {
		baselineRuns++
		base, err = measure(mod, entry, opts, det, sp)
	}
	if err != nil {
		return nil, fmt.Errorf("optimize: baseline run: %w", err)
	}
	res.SimNsBefore = base.simNs
	res.SimNsAfter = base.simNs

	// CrashsimProven is a property of the module, not of the candidate
	// set: it says whether any accepted edit carries (or would carry) a
	// crashsim verdict-identity proof, so it is set before the
	// zero-candidate early return.
	inv := recoveryEntry(mod, opts.Invariant, crashsim.DefaultInvariant)
	rec := recoveryEntry(mod, opts.Recovery, crashsim.DefaultRecovery)
	res.CrashsimProven = inv != nil || rec != nil

	cands := gather(mod, base)
	res.Candidates = len(cands)
	res.FinalLints = base.lints
	sp.Add("optimize.candidates", int64(len(cands)))
	if len(cands) == 0 {
		publishEditCounters(sp, res)
		return res, nil
	}
	if opts.Baseline != nil {
		// The proofs compare return values, PM event logs and durability
		// states, which the caller's run does not carry.
		baselineRuns++
		if err := base.execute(mod, entry, opts, det); err != nil {
			return nil, fmt.Errorf("optimize: baseline run: %w", err)
		}
	}

	// Crashsim baseline: one verdict set at aligned points, refreshed on
	// every accepted edit so each candidate is compared against the
	// current build.
	if opts.Cache == nil {
		opts.Cache = crashsim.NewVerdictCache()
	}
	var keys []alignKey
	var curCrash map[string]int
	if res.CrashsimProven {
		keys = alignKeys(base.events, opts.MaxPoints, inv != nil, rec)
		res.CrashPoints = len(keys)
		pts, err := keysToPoints(base.events, keys)
		if err != nil {
			return nil, fmt.Errorf("optimize: baseline crash points: %w", err)
		}
		rep, err := crashsim.Validate(mod, csOptions(opts, entry, pts, sp))
		if err != nil {
			return nil, fmt.Errorf("optimize: baseline crashsim: %w", err)
		}
		curCrash = failureSig(rep, base.events)
	}

	cur := base
	for _, c := range cands {
		site := ir.FormatSite(c.in)
		into := ""
		if c.partner != nil {
			into = ir.FormatSite(c.partner)
		}
		ed := &Edit{
			Kind:   c.kind,
			Func:   c.fn.Name,
			Site:   site,
			Loc:    locString(c.in),
			Origin: c.origin,
			Into:   into,
		}
		res.Edits = append(res.Edits, ed)

		blk := c.in.Block()
		idx := blk.RemoveInstr(c.in)

		after, err := measure(mod, entry, opts, det, sp)
		ok, reason := true, ""
		if err != nil {
			ok, reason = false, "workload failed after edit: "+crashsim.FirstLine(err.Error())
		} else {
			ok, reason = cur.compare(after)
		}
		var afterCrash map[string]int
		if ok && res.CrashsimProven {
			afterCrash, reason = crashCompare(mod, after, keys, curCrash, opts, entry)
			ok = reason == ""
		}

		if ok {
			ed.Accepted = true
			ed.SavedNs = cur.simNs - after.simNs
			ed.Reason = proofSummary(res.CrashsimProven, len(keys))
			cur, curCrash = after, afterCrash
			res.SimNsAfter = after.simNs
			switch c.kind {
			case EditCoalesceFlush:
				res.Merged++
			case EditSinkFence:
				res.Sunk++
			default:
				res.Deleted++
			}
		} else {
			blk.InsertAt(idx, c.in)
			ed.Accepted = false
			ed.Reason = reason
			res.Rejected++
		}
		audit(sp, ed)
		if opts.Log != nil {
			fmt.Fprintf(opts.Log, "optimize: %s\n", ed)
		}
	}

	res.FinalLints = cur.lints
	publishEditCounters(sp, res)
	return res, nil
}

func publishEditCounters(sp *obs.Span, res *Result) {
	sp.Add("optimize.edits.deleted", int64(res.Deleted))
	sp.Add("optimize.edits.merged", int64(res.Merged))
	sp.Add("optimize.edits.sunk", int64(res.Sunk))
	sp.Add("optimize.edits.rejected", int64(res.Rejected))
}

func proofSummary(crashProven bool, points int) string {
	if crashProven {
		return fmt.Sprintf("run/report identity and verdict identity at %d crash point(s)", points)
	}
	return "run/report identity (no recovery entries, crashsim skipped)"
}

// audit records one candidate decision in the obs audit trail, mirroring
// the fixer's entries so a single trail narrates both repair and
// optimization provenance.
func audit(sp *obs.Span, ed *Edit) {
	decision := "rejected"
	if ed.Accepted {
		decision = "applied"
	}
	sp.Audit(obs.AuditEntry{
		Action:    ed.Kind.String(),
		Site:      ed.Site,
		Mechanism: ed.Origin,
		Decision:  decision,
		Why:       ed.Reason,
		Score:     int(ed.SavedNs),
	})
}

// recoveryEntry returns the recovery entry name selects as crashsim
// resolves it (def when name is empty, none when it is "-"), when the
// module defines a body for it, else nil.
func recoveryEntry(mod *ir.Module, name, def string) *ir.Func {
	switch name {
	case "-":
		return nil
	case "":
		name = def
	}
	if f := mod.Func(name); f != nil && !f.IsDecl() {
		return f
	}
	return nil
}

func locString(in *ir.Instr) string {
	if loc := in.Loc(); !loc.IsZero() {
		return loc.String()
	}
	return ""
}
