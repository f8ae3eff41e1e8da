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
	// Interp is the per-run interpreter option template. Trace, Schedule,
	// Detector, NoTrack and Stacks are overwritten for every run;
	// everything else (step limit, deadline, cost model) passes through.
	// Every explored run detects online with the call's one detector,
	// reset between runs, so its tracker is the only one the run has.
	Interp interp.Options
	// Obs, when non-nil, receives schedule.explored / schedule.pruned /
	// schedule.truncated counters.
	Obs *obs.Span
}

// Run is one executed interleaving. It keeps only the run's verdict:
// the buffers the run recorded into (its trace, its decision log) are
// reset and reused by the exploration's next run, and the one trace an
// exploration keeps, the round-robin run's, is Result.Trace.
type Run struct {
	// Choices is the full decision log (not just the seed prefix);
	// replaying it as a schedule reproduces this run bit-for-bit.
	Choices []int
	// ID is interp.ScheduleID(Choices) — the replayable coordinate.
	ID string
	// Ret is the entry function's return value (zero if Err != nil).
	Ret uint64
	// Err is the runtime verdict: non-nil when this interleaving
	// faulted, deadlocked, or tripped an assertion.
	Err error
	// Check is the online detector's result for the run; nil when Err
	// != nil (an aborted run never reached its final durability point,
	// so the detector would report the abort, not the program). Runs of
	// one exploration share the records their verdicts have in common
	// (pmcheck.VerdictTable), which nothing changes: an equal report is
	// one record, an equal whole result one Result. The events it names
	// are Result.Trace's or copies the exploration's table owns.
	Check *pmcheck.Result
	// Threads is how many threads the run spawned (including main).
	Threads int
}

// Buggy reports whether this interleaving exhibited a problem: a
// runtime error or any detector report.
func (r *Run) Buggy() bool {
	return r.Err != nil || (r.Check != nil && !r.Check.Clean())
}

// Result is the outcome of an exploration.
type Result struct {
	// Runs holds every executed interleaving, in discovery order; the
	// first entry is always the default round-robin schedule.
	Runs []*Run
	// Trace is the PM event trace of Runs[0], the round-robin run: the
	// trace the concurrent repair resolves report sites against (report
	// sites are schedule-independent instruction ids).
	Trace *trace.Trace
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

// Explore systematically runs mod's entry under distinct interleavings
// and checks each one. It returns an error only for structural
// failures (entry missing, machine construction); per-interleaving
// runtime errors are verdicts, recorded on the Run.
func Explore(mod *ir.Module, entry string, args []uint64, opts Options) (*Result, error) {
	return explore(mod, entry, args, opts, nil, nil)
}

// explore is Explore; observe, when non-nil, sees every run with its
// trace and decision log before the next run reuses their buffers (the
// package's tests read explored traces through it), and queued, when
// non-nil, sees after every run's branching how many branches the
// frontier holds and how many runs the budget has left.
func explore(mod *ir.Module, entry string, args []uint64, opts Options,
	observe func(*Run, *trace.Trace, []interp.Decision), queued func(frontier, left int)) (*Result, error) {
	max := opts.MaxSchedules
	if max <= 0 {
		max = DefaultMaxSchedules
	}
	res := &Result{}
	s := newSession(mod, entry, args, opts.Interp)
	// The frontier is a FIFO queue advanced by index; its first entry
	// (no parent) is the round-robin run. It never holds more branches
	// than the budget can still run: a branch found past that only marks
	// the result truncated.
	frontier := []branch{{}}
	head := 0
	var prefix []int
	for head < len(frontier) && res.Explored < max {
		prefix = frontier[head].prefix(prefix[:0])
		head++
		run, err := s.run(prefix)
		if err != nil {
			return nil, err
		}
		if res.Trace == nil {
			res.Trace = s.tr
		}
		res.Runs = append(res.Runs, run)
		res.Explored++
		ds := s.m.Decisions()
		if observe != nil {
			observe(run, s.tr, ds)
		}
		// Branch only at or beyond this run's own prefix: earlier points
		// were branched by the ancestor that discovered them.
		for i := len(prefix); i < len(ds); i++ {
			d := ds[i]
			for alt := range d.Runnable {
				if alt == d.Chosen {
					continue
				}
				if !opts.NoPOR && commutes(d.Runnable[alt], d.Runnable[d.Chosen]) {
					res.Pruned++
					continue
				}
				if len(frontier)-head < max-res.Explored {
					frontier = append(frontier, branch{parent: run, at: i, alt: alt})
				} else {
					res.Truncated = true
				}
			}
		}
		if queued != nil {
			queued(len(frontier)-head, max-res.Explored)
		}
	}
	if head < len(frontier) {
		res.Truncated = true
	}
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

// session runs the interleavings of one exploration, one at a time.
// The first run records into a machine and a trace of its own, which the
// Result keeps. Every later run records into one second machine and
// trace, reset between runs, so an explored run allocates little beyond
// its verdict, and takes its verdict through the session's verdict
// table, which copies the events it sees first before a reset reuses
// them. The reset also rewinds the machine's simulated memory, which
// the session never reads once a run has returned.
type session struct {
	mod   *ir.Module
	entry string
	args  []uint64
	// opts is the per-run option template.
	opts interp.Options
	// m and tr are the latest run's machine and trace.
	m  *interp.Machine
	tr *trace.Trace
	// table holds the verdicts of the runs after the first. The first
	// run's verdict enters it, as it is, when the second run starts: its
	// events are Result.Trace's.
	table *pmcheck.VerdictTable
	first *pmcheck.Result
	runs  int
}

// newSession prepares the runs of one exploration under the option
// template io (see Options.Interp).
func newSession(mod *ir.Module, entry string, args []uint64, io interp.Options) *session {
	// Every run of the session interns its call stacks in one table: the
	// module does not change during the session and its runs are
	// sequential, so the schedules share the stacks they have in common.
	// The table never leaves the session, so concurrent explorations of
	// one module never share one.
	io.Stacks = interp.NewStackTable()
	// Likewise one detector serves every run: each machine reset resets
	// it, keeping its tracker's and interner's buffers, and the results it
	// returned stay the runs' own.
	io.Detector = pmcheck.NewDetector()
	io.NoTrack = false
	return &session{mod: mod, entry: entry, args: args, opts: io}
}

// run executes the interleaving that replays prefix and returns its
// verdict; s.m and s.tr hold its machine and trace until the next run.
// The machine reads prefix only during the run, so the caller may
// rebuild the next prefix in the same buffer.
func (s *session) run(prefix []int) (*Run, error) {
	io := s.opts
	io.Schedule = prefix
	if s.runs == 1 {
		s.table = pmcheck.NewVerdictTable()
		if s.first != nil {
			s.table.Adopt(s.first)
		}
	}
	if s.runs < 2 {
		// The first run's trace is the Result's, so the second run starts
		// the machine and trace the rest of the session reuses.
		s.tr = &trace.Trace{Program: s.mod.Name}
		io.Trace = s.tr
		m, err := interp.New(s.mod, io)
		if err != nil {
			return nil, err
		}
		s.m = m
	} else {
		s.tr.Events = s.tr.Events[:0]
		io.Trace = s.tr
		if err := s.m.Reset(io); err != nil {
			return nil, err
		}
	}
	s.runs++
	ret, rerr := s.m.Run(s.entry, s.args...)
	ds := s.m.Decisions()
	choices := make([]int, len(ds))
	for i, d := range ds {
		choices[i] = d.Chosen
	}
	r := &Run{
		Choices: choices,
		ID:      interp.ScheduleID(choices),
		Threads: s.m.ThreadCount(),
	}
	switch {
	case rerr != nil:
		r.Err = rerr
	case s.table == nil:
		r.Ret = ret
		r.Check = io.Detector.Result()
		s.first = r.Check
	default:
		r.Ret = ret
		r.Check = io.Detector.SharedResult(s.table)
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
