package core

import "hippocrates/internal/ir"

// sameLineRuns is the paper's phase-2 grouping rule (§4.3), the one rule
// both planned fixes and persistent subprograms reduce by. Member stores
// of blk that resolve to the same line of the same PM root, with no call
// between them, form a run; one flush after the run's last store covers
// the whole line, which still satisfies X → F(X) → M → I for every
// member. A call ends every open run: the callee may reach a durability
// point that must observe the earlier stores flushed. It returns the runs
// of two or more stores, each in block order, the runs in no set order.
func (fx *Fixer) sameLineRuns(blk *ir.Block, member func(*ir.Instr) bool) [][]*ir.Instr {
	type lineKey struct {
		root ir.Value
		line int64
	}
	var runs [][]*ir.Instr
	var open map[lineKey][]*ir.Instr
	closeRuns := func() {
		for _, run := range open {
			if len(run) > 1 {
				runs = append(runs, run)
			}
		}
		clear(open)
	}
	for _, in := range blk.Instrs {
		switch {
		case in.Op == ir.OpCall:
			closeRuns()
		case (in.Op == ir.OpStore || in.Op == ir.OpNTStore) && member(in):
			root, line, ok := fx.lines.Line(in.StorePtr(), in.StoreTy().Size())
			if !ok {
				continue
			}
			if open == nil {
				open = make(map[lineKey][]*ir.Instr)
			}
			k := lineKey{root, line}
			open[k] = append(open[k], in)
		}
	}
	closeRuns()
	return runs
}

// reduceFlushGroups applies the phase-2 grouping rule to the planned
// intraprocedural flushes: in each same-line run, the last store's plan
// leads, the others merge their flush into its, and one shared fence
// follows the leader's flush if any member needs one.
func (fx *Fixer) reduceFlushGroups(plans []*plan) {
	// Several plans can share one store instruction (the same site
	// reached through different call chains); group at the store level,
	// then apply the outcome to every plan of each store.
	plansOf := make(map[*ir.Instr][]*plan)
	for _, p := range plans {
		if p.hoist != nil || !p.report.NeedFlush {
			continue
		}
		plansOf[p.storeIn] = append(plansOf[p.storeIn], p)
	}
	planned := func(in *ir.Instr) bool { return len(plansOf[in]) > 0 }
	done := make(map[*ir.Block]bool)
	for st := range plansOf {
		blk := st.Block()
		if done[blk] {
			continue
		}
		done[blk] = true
		for _, run := range fx.sameLineRuns(blk, planned) {
			leaderStore := run[len(run)-1]
			leader := plansOf[leaderStore][0]
			anyFence := false
			for _, st := range run {
				for _, p := range plansOf[st] {
					anyFence = anyFence || p.report.NeedFence
					if st != leaderStore {
						p.groupLeader = leader
					}
				}
			}
			leader.groupFence = anyFence
		}
	}
}
