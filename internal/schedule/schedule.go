// Package schedule explores thread interleavings of a concurrent PM
// program and runs the dynamic detector under each one.
//
// The interpreter takes scheduling decisions only at PM-visible
// boundaries (stores, flushes, fences, durability points, atomics,
// spawn/join — see internal/interp's scheduler), so an interleaving is
// fully described by the choice taken at each decision point. Explore
// performs systematic prefix-tree search over those choices: it runs
// the default round-robin schedule, reads back the decision log, and
// for every decision point branches into each alternative that was
// runnable but not chosen, replaying the choice prefix up to that point
// and letting round-robin finish the run. Branches discovered by a
// child run are explored the same way, but only at points at or beyond
// the child's own prefix — points before it were already branched by an
// ancestor — so no interleaving is visited twice.
//
// Persistence-aware partial-order reduction prunes the tree: an
// alternative is skipped when its pending operation provably commutes
// with the chosen one. Two operations commute when both are
// line-addressed (store, NT-store, weak flush, atomic) and touch
// different cache lines — the persistency tracker's state is
// per-line, so executing them in either order reaches the same
// machine, tracker, and trace-modulo-sequence state, and crash images
// are unaffected because the per-cache-line prefix crash model already
// enumerates every cross-line eviction order at each crash point.
// Everything else conservatively conflicts: fences and durability
// points are global barriers, ordered flushes (CLFLUSH) commit their
// line mid-interleaving, and spawn/join/start change the runnable set.
//
// The model assumes threads share data only through PM-visible
// operations, atomics, and join edges; volatile non-atomic races fall
// between decision points and are not interleaved (generated and
// corpus programs respect this).
package schedule

import (
	"fmt"
	"sort"
	"strings"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// DefaultMaxSchedules bounds exploration when the caller doesn't.
const DefaultMaxSchedules = 64

// Options configures an exploration.
type Options struct {
	// MaxSchedules caps the number of interleavings executed (0 means
	// DefaultMaxSchedules). When the bound truncates a non-empty
	// frontier the Result says so rather than silently claiming full
	// coverage.
	MaxSchedules int
	// NoPOR disables partial-order reduction, making the search
	// bounded-exhaustive. The equivalence test uses this to pin POR's
	// soundness: both modes must produce the same verdict set.
	NoPOR bool
	// Interp is the per-run interpreter option template. Trace, Schedule
	// and NoTrack are overwritten for every run; everything else (step
	// limit, deadline, cost model) passes through. Explored runs are
	// always untracked: the detector replays each run's trace with its
	// own durability tracker, and no exploration result reads what an
	// online tracker would add (the simulated clock).
	Interp interp.Options
	// Obs, when non-nil, receives schedule.explored / schedule.pruned /
	// schedule.truncated counters.
	Obs *obs.Span
}

// Run is one executed interleaving.
type Run struct {
	// Choices is the full decision log (not just the seed prefix);
	// replaying it as a schedule reproduces this run bit-for-bit.
	Choices []int
	// ID is interp.ScheduleID(Choices) — the replayable coordinate.
	ID string
	// Decisions is the machine's decision log for this run.
	Decisions []interp.Decision
	// Ret is the entry function's return value (zero if Err != nil).
	Ret uint64
	// Err is the runtime verdict: non-nil when this interleaving
	// faulted, deadlocked, or tripped an assertion.
	Err error
	// Trace holds the run's PM events.
	Trace *trace.Trace
	// Check is the detector result for Trace; nil when Err != nil (an
	// aborted run never reached its final durability point, so the
	// detector would report the abort, not the program).
	Check *pmcheck.Result
	// Threads is how many threads the run spawned (including main).
	Threads int
}

// Buggy reports whether this interleaving exhibited a problem: a
// runtime error or any detector report.
func (r *Run) Buggy() bool {
	return r.Err != nil || (r.Check != nil && !r.Check.Clean())
}

// Signature is an order-insensitive fingerprint of the run's verdict:
// return value (or error), plus the sorted set of distinct report
// classes and sites. Two interleavings with equal signatures found the
// same bugs, which is what the POR equivalence test compares.
func (r *Run) Signature() string {
	if r.Err != nil {
		return "err:" + firstLine(r.Err.Error())
	}
	parts := []string{fmt.Sprintf("ret:%d", r.Ret)}
	set := map[string]bool{}
	for _, rep := range r.Check.Reports {
		k := rep.Key()
		set[fmt.Sprintf("%s@%d|%s|xt=%v", k.Func, k.InstrID, rep.Class(), rep.CrossThread)] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(append(parts, keys...), ";")
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

// Result is the outcome of an exploration.
type Result struct {
	// Runs holds every executed interleaving, in discovery order; the
	// first entry is always the default round-robin schedule.
	Runs []*Run
	// Explored == len(Runs).
	Explored int
	// Pruned counts alternatives skipped by partial-order reduction.
	Pruned int
	// Truncated is set when MaxSchedules cut off a non-empty frontier.
	Truncated bool
}

// AllClean reports whether every explored interleaving was bug-free.
func (res *Result) AllClean() bool { return res.FirstBuggy() == nil }

// FirstBuggy returns the first explored interleaving that exhibited a
// problem, or nil.
func (res *Result) FirstBuggy() *Run {
	for _, r := range res.Runs {
		if r.Buggy() {
			return r
		}
	}
	return nil
}

// VerdictSet returns the sorted distinct run signatures — the
// order-insensitive summary POR must preserve.
func (res *Result) VerdictSet() []string {
	set := map[string]bool{}
	for _, r := range res.Runs {
		set[r.Signature()] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// Explore systematically runs mod's entry under distinct interleavings
// and checks each one. It returns an error only for structural
// failures (entry missing, machine construction); per-interleaving
// runtime errors are verdicts, recorded on the Run.
func Explore(mod *ir.Module, entry string, args []uint64, opts Options) (*Result, error) {
	max := opts.MaxSchedules
	if max <= 0 {
		max = DefaultMaxSchedules
	}
	res := &Result{}
	// The frontier is a FIFO queue advanced by index; its first entry
	// (no parent) is the round-robin run.
	frontier := []branch{{}}
	head := 0
	var prefix []int
	for head < len(frontier) && res.Explored < max {
		prefix = frontier[head].prefix(prefix[:0])
		head++
		run, err := runOne(mod, entry, args, prefix, &opts.Interp)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, run)
		res.Explored++
		// Branch only at or beyond this run's own prefix: earlier points
		// were branched by the ancestor that discovered them.
		for i := len(prefix); i < len(run.Decisions); i++ {
			d := run.Decisions[i]
			for alt := range d.Runnable {
				if alt == d.Chosen {
					continue
				}
				if !opts.NoPOR && commutes(d.Runnable[alt], d.Runnable[d.Chosen]) {
					res.Pruned++
					continue
				}
				frontier = append(frontier, branch{parent: run, at: i, alt: alt})
			}
		}
	}
	frontier = frontier[head:]
	res.Truncated = len(frontier) > 0
	if sp := opts.Obs; sp != nil {
		sp.Add("schedule.explored", int64(res.Explored))
		sp.Add("schedule.pruned", int64(res.Pruned))
		if res.Truncated {
			sp.Add("schedule.truncated", 1)
		}
	}
	return res, nil
}

// branch is one unexplored alternative: the run that discovered it,
// the decision index at, and the choice alt taken there instead. Its
// schedule prefix, parent.Choices[:at] followed by alt, is built only
// when the branch is popped; most branches never run under a budget.
type branch struct {
	parent  *Run
	at, alt int
}

// prefix appends the branch's schedule prefix to buf. The root branch
// has the empty prefix.
func (b branch) prefix(buf []int) []int {
	if b.parent == nil {
		return buf
	}
	return append(append(buf, b.parent.Choices[:b.at]...), b.alt)
}

// runOne executes a single interleaving from a choice prefix, untracked
// (see Options.Interp). The machine does not keep prefix past the run.
func runOne(mod *ir.Module, entry string, args []uint64, prefix []int, tmpl *interp.Options) (*Run, error) {
	io := *tmpl
	tr := &trace.Trace{Program: mod.Name}
	io.Trace = tr
	io.Schedule = prefix
	io.NoTrack = true
	m, err := interp.New(mod, io)
	if err != nil {
		return nil, err
	}
	ret, rerr := m.Run(entry, args...)
	ds := m.Decisions()
	choices := make([]int, len(ds))
	for i, d := range ds {
		choices[i] = d.Chosen
	}
	r := &Run{
		Choices:   choices,
		ID:        interp.ScheduleID(choices),
		Decisions: ds,
		Trace:     tr,
		Threads:   m.ThreadCount(),
	}
	if rerr != nil {
		r.Err = rerr
	} else {
		r.Ret = ret
		r.Check = pmcheck.Check(tr)
	}
	return r, nil
}

// commutes reports whether two pending operations provably reach the
// same state in either order: both must be line-addressed (store,
// NT-store, weak flush, atomic) and touch different cache lines.
func commutes(a, b interp.PendingOp) bool {
	return lineAddressed(a) && lineAddressed(b) &&
		pmem.LineOf(a.Addr) != pmem.LineOf(b.Addr)
}

func lineAddressed(p interp.PendingOp) bool {
	switch p.Kind {
	case interp.PendStore, interp.PendNTStore, interp.PendAtomic:
		return true
	case interp.PendFlush:
		// CLFLUSH commits its line immediately, changing the durable
		// image mid-interleaving — conservatively conflicts.
		return !p.Ordered
	}
	return false
}
