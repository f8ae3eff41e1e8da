package static

import (
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// Spawn-aware soundness rule. The sequential dataflow is unsound the
// moment a module spawns a thread: another thread's fence never drains
// this thread's flushes, a flush another thread observes as covering can
// race the store it covers, and an interleaving the explorer picks can
// leave any store pending at a durability point another thread reaches.
// Rather than model interleavings statically, the analysis falls back to
// the trivially sound over-approximation the agreement contract permits:
// every may-PM store site reachable from the entry (through calls and
// spawns) is reported needing both flush and fence. The dynamic detector
// refines this per schedule; the static side only promises a per-site
// superset.
//
// Lints are dropped entirely in spawn modules for the same reason: a
// "redundant" flush or fence may be load-bearing under an interleaving
// the sequential flow never considers, and the optimizer consumes lints
// to delete instructions.

// threadBlanketReports builds the over-approximating report set for a
// spawn module: one missing-flush&fence report per may-PM store site
// reachable from the entry, each carrying one representative call chain.
// Sites already reported with both needs by the sequential flow are
// skipped — the flow's report has the richer checkpoint provenance.
func (az *analyzer) threadBlanketReports(have map[pmcheck.SiteKey]pmcheck.Needs) []*Report {
	// One representative chain (entry-rooted, innermost first) per
	// function, following call and spawn edges breadth-first so the chain
	// is a shortest one.
	chains := map[*ir.Func][]trace.Frame{az.entry: nil}
	work := []*ir.Func{az.entry}
	for len(work) > 0 {
		fn := work[0]
		work = work[1:]
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				callee := in.Callee()
				if (in.Op != ir.OpCall && in.Op != ir.OpSpawn) || callee == nil || callee.IsDecl() {
					continue
				}
				if _, seen := chains[callee]; seen {
					continue
				}
				site := trace.Frame{Func: fn.Name, InstrID: int(in.ID), Loc: in.Loc()}
				chains[callee] = append([]trace.Frame{site}, chains[fn]...)
				work = append(work, callee)
			}
		}
	}

	var out []*Report
	for fn, chain := range chains {
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				var (
					ptr  ir.Value
					size int64
					nt   bool
				)
				switch in.Op {
				case ir.OpStore, ir.OpNTStore:
					ptr, size, nt = in.StorePtr(), in.StoreTy().Size(), in.Op == ir.OpNTStore
				case ir.OpAtomicStore, ir.OpAtomicRMW, ir.OpAtomicCAS:
					ptr, size = in.StorePtr(), 8
				case ir.OpCall:
					if n := in.Callee().Name; n != "memcpy" && n != "memset" {
						continue
					}
					ptr = in.Args[0]
					if c, ok := in.Args[2].(*ir.Const); ok {
						size = c.Val
					}
				default:
					continue
				}
				if !az.ptsOf(ptr).mayPM {
					continue
				}
				key := pmcheck.SiteKey{Func: fn.Name, InstrID: int(in.ID)}
				if n := have[key]; n.Flush && n.Fence {
					continue
				}
				stack := append([]trace.Frame{{Func: fn.Name, InstrID: int(in.ID), Loc: in.Loc()}}, chain...)
				out = append(out, &Report{
					Func:      fn.Name,
					InstrID:   int(in.ID),
					Loc:       in.Loc(),
					Op:        in.Op,
					Size:      size,
					NT:        nt,
					NeedFlush: true,
					NeedFence: true,
					Stack:     stack,
				})
			}
		}
	}
	return out
}
