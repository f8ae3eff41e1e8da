package interp

import (
	"fmt"

	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
)

// RecordObs flushes the machine's run statistics into the span's
// recorder: total steps, checkpoints, and the per-opcode execution
// counters (namespaced under obs.OpcodeCounterPrefix, which feeds the
// top-10 opcode table in the metrics export). The interpreter's dispatch
// loop never touches obs directly — it keeps dense integer counters and
// this one call publishes them after the run.
func (m *Machine) RecordObs(sp *obs.Span) {
	if sp == nil {
		return
	}
	sp.Add("interp.steps", m.steps)
	sp.Add("interp.checkpoints", int64(m.checkpoints))
	if m.mt != nil {
		sp.Add("interp.threads", int64(len(m.mt.threads)))
		sp.Add("interp.sched_decisions", int64(len(m.mt.decisions)))
		for tid, kinds := range m.threadEv {
			for k, n := range kinds {
				if n > 0 {
					sp.Add(fmt.Sprintf("interp.thread.%d.%s", tid, PMEventKind(k)), n)
				}
			}
		}
	}
	for op, n := range m.ops {
		if n > 0 {
			sp.Add(obs.OpcodeCounterPrefix+ir.Op(op).String(), n)
		}
	}
}
