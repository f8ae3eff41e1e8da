package core

import (
	"fmt"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// candidate is one possible fix location for a missing-flush bug: the
// store itself (depth 0, intraprocedural) or a call site d levels up the
// stack, meaning the persistent subprogram transformation is applied to
// the callee at stack[d-1] and the call at stack[d] is retargeted (§4.3).
type candidate struct {
	depth  int
	frame  trace.Frame
	callIn *ir.Instr // resolved call instruction (depth >= 1)
	score  int
	// why records, in prose, how the heuristic arrived at this placement;
	// it flows into the repair audit trail.
	why string
}

// chooseCandidate runs the hoisting heuristic for one report and returns
// the best fix location: the candidate with the highest PM-alias score,
// ties broken toward the innermost (simplest) location. With hoisting
// disabled it always returns the intraprocedural candidate.
func (fx *Fixer) chooseCandidate(rep *pmcheck.Report) candidate {
	stack := rep.Store.Stack
	intra := candidate{depth: 0, frame: rep.Store.Site(), score: fx.scoreValues(fx.storePointers(rep))}
	fx.debugScore(rep, intra)
	if fx.opts.DisableHoisting {
		intra.why = "hoisting disabled; intraprocedural fix forced"
		return intra
	}
	if len(stack) < 2 {
		intra.why = "store in the entry activation; no call sites to hoist to"
		return intra
	}

	// A call site at depth d transforms the callee whose activation is
	// stack[d-1]; that activation must not be live at any durability
	// point that observed the bug (otherwise the clone's trailing fence
	// would execute only after I). liveLimit is the maximum depth whose
	// callee frame is certainly dead at every checkpoint.
	maxShared := 0
	for _, ck := range rep.Checkpoints {
		if k := sharedActivations(stack, ck.Stack); k > maxShared {
			maxShared = k
		}
	}
	maxDepth := len(stack) - maxShared
	if d := commonStackDepth(rep.Stacks, stack); d < maxDepth {
		maxDepth = d
	}

	best := intra
	stop := ""
	for d := 1; d <= maxDepth && d < len(stack); d++ {
		frame := stack[d]
		callIn := fx.resolve(frame)
		if callIn == nil || callIn.Op != ir.OpCall || callIn.Callee.Name != stack[d-1].Func {
			// The stack does not resolve to a call chain in this module
			// (e.g. renamed functions); stop hoisting here.
			stop = fmt.Sprintf("call chain unresolvable at depth %d", d)
			break
		}
		var ptrArgs []ir.Value
		for _, a := range callIn.Args {
			if ir.IsPtr(a.Type()) {
				ptrArgs = append(ptrArgs, a)
			}
		}
		if len(ptrArgs) == 0 {
			// §4.3: argument-less call sites and all their parents score
			// −∞ — the callee reaches PM through globals or allocates it
			// directly, so hoisting buys nothing.
			stop = fmt.Sprintf("call site at depth %d passes no pointers (scores -inf upward)", d)
			break
		}
		c := candidate{depth: d, frame: frame, callIn: callIn, score: fx.scoreValues(ptrArgs)}
		fx.debugScore(rep, c)
		if c.score > best.score {
			best = c
		}
	}
	if best.depth == 0 {
		best.why = fmt.Sprintf("no call site outscored the store (intra score %d)", intra.score)
		if stop != "" {
			best.why += "; " + stop
		} else if maxDepth < len(stack)-1 {
			best.why += fmt.Sprintf("; hoisting capped at depth %d by checkpoint liveness / stack divergence", maxDepth)
		}
	} else {
		best.why = fmt.Sprintf("call site at depth %d scored %d > store-site %d", best.depth, best.score, intra.score)
	}
	return best
}

// debugScore reports one candidate to the DebugScores writer.
func (fx *Fixer) debugScore(rep *pmcheck.Report, c candidate) {
	if fx.opts.DebugScores == nil {
		return
	}
	fmt.Fprintf(fx.opts.DebugScores, "%s candidate for [%s]: depth=%d at %s score=%d\n",
		fx.marks.Name, rep.Store.Site(), c.depth, c.frame, c.score)
}

// storePointers returns the pointer value(s) whose aliasing decides the
// intraprocedural score: the store's address operand, or the destination
// of a builtin memcpy/memset.
func (fx *Fixer) storePointers(rep *pmcheck.Report) []ir.Value {
	in := fx.resolve(rep.Store.Site())
	switch {
	case in.Op.IsStoreLike():
		return []ir.Value{in.StorePtr()}
	case in.Op == ir.OpCall:
		return []ir.Value{in.Args[0]}
	}
	return nil
}

// scoreValues sums, over the given pointers, the number of PM-marked
// aliases minus the number of non-PM-marked aliases (§4.3).
func (fx *Fixer) scoreValues(ptrs []ir.Value) int {
	score := 0
	for _, v := range ptrs {
		for _, p := range fx.an.Pointers() {
			if !fx.an.MayAlias(p, v) {
				continue
			}
			if fx.marks.PM(p) {
				score++
			}
			if fx.marks.NonPM(p) {
				score--
			}
		}
	}
	return score
}

// sharedActivations estimates how many outermost frames of the store's
// stack are the same activation as in the checkpoint's stack: the frames
// with identical (function, call-site) pairs, plus one more if the next
// frames are in the same function (that activation simply moved on from
// the call to the durability point). An empty checkpoint stack (the
// implicit end-of-program durability point) shares nothing.
func sharedActivations(storeStack, ckptStack []trace.Frame) int {
	rs := reversed(storeStack)
	rc := reversed(ckptStack)
	k := 0
	for k < len(rs) && k < len(rc) && rs[k].Func == rc[k].Func && rs[k].InstrID == rc[k].InstrID {
		k++
	}
	if k < len(rs) && k < len(rc) && rs[k].Func == rc[k].Func {
		k++
	}
	return k
}

// commonStackDepth returns the largest depth d such that every observed
// stack agrees with the representative on frames 1..d — the transformation
// clones the exact call chain, so every buggy path must share it.
func commonStackDepth(stacks [][]trace.Frame, rep []trace.Frame) int {
	max := len(rep) - 1
	for _, s := range stacks {
		d := 0
		for d+1 < len(s) && d+1 < len(rep) &&
			s[d+1].Func == rep[d+1].Func && s[d+1].InstrID == rep[d+1].InstrID {
			d++
		}
		if len(s) != len(rep) || d+1 != len(s) {
			// Diverging or different-length stacks: hoisting above the
			// divergence point would leave the other paths unfixed.
			if d < max {
				max = d
			}
		}
	}
	return max
}

func reversed(fs []trace.Frame) []trace.Frame {
	out := make([]trace.Frame, len(fs))
	for i, f := range fs {
		out[len(fs)-1-i] = f
	}
	return out
}
