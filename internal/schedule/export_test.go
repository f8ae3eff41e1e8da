package schedule

import (
	"fmt"
	"sort"
	"strings"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// Exported for the external tests, which import the corpus (and through
// it this package), so they cannot live in package schedule.
var (
	Commutes = commutes
)

// VerdictSet returns the sorted distinct run signatures of res — the
// order-insensitive summary POR must preserve.
func VerdictSet(res *Result) []string {
	set := map[string]bool{}
	for _, r := range res.Runs {
		set[Signature(r)] = true
	}
	out := make([]string, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

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

// Signature is an order-insensitive fingerprint of r's verdict: return
// value (or error), plus the sorted set of distinct report classes and
// sites. Two interleavings with equal signatures found the same bugs,
// which is what the POR equivalence test compares.
func Signature(r *Run) string {
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
