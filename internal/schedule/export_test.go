package schedule

import (
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// Exported for the external tests, which import the corpus (and through
// it this package), so they cannot live in package schedule.
var (
	Commutes = commutes
)

// ExploreObserved is Explore with a hook that sees every run with its
// trace and decision log before the next run reuses their buffers.
func ExploreObserved(mod *ir.Module, entry string, args []uint64, opts Options,
	observe func(*Run, *trace.Trace, []interp.Decision)) (*Result, error) {
	return explore(mod, entry, args, opts, observe, nil)
}

// ExploreQueued is Explore with a hook that sees, after every run's
// branching, the branches the frontier holds and the runs the budget
// has left.
func ExploreQueued(mod *ir.Module, entry string, args []uint64, opts Options,
	queued func(frontier, left int)) (*Result, error) {
	return explore(mod, entry, args, opts, nil, queued)
}

// RunOne runs one interleaving on a machine, trace, detector and stack
// table of its own, as the first run of an exploration does, and returns
// the run with its trace and decision log.
func RunOne(mod *ir.Module, entry string, args []uint64, prefix []int, io interp.Options) (*Run, *trace.Trace, []interp.Decision, error) {
	s := newSession(mod, entry, args, io)
	r, err := s.run(prefix)
	if err != nil {
		return nil, nil, nil, err
	}
	return r, s.tr, s.m.Decisions(), nil
}
