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
	// ExploreObserved is Explore with a hook that sees every run with its
	// trace and decision log before the next run reuses their buffers.
	ExploreObserved = explore
)

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
