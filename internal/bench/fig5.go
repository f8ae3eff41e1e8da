package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// Fig5Row is one target's offline overhead.
type Fig5Row struct {
	Target string
	// KLOC is thousands of source lines (pmc) across the target's
	// programs, prelude included, mirroring the paper's per-target KLOC.
	KLOC float64
	// Time is the wall-clock Hippocrates runtime (analysis + fix
	// computation + application) over all the target's programs.
	Time time.Duration
	// AliasTime / PlanTime / ApplyTime break Time into its phases
	// (points-to solving, fix planning, fix application), measured by the
	// telemetry recorder the repair runs under.
	AliasTime time.Duration
	PlanTime  time.Duration
	ApplyTime time.Duration
	// AllocBytes is the Go heap allocated while fixing (the paper
	// reports peak RSS; allocation volume is the simulator-side analogue).
	AllocBytes uint64
	// Fixes is the number of applied fixes.
	Fixes int
	// TraceEvents is the consumed trace size in events.
	TraceEvents int
}

// Fig5Result is the offline-overhead table.
type Fig5Result struct {
	Rows []Fig5Row
}

// RunFig5 measures Hippocrates's offline overhead per evaluation target
// (Fig. 5): how long the repair pass takes and how much memory it uses.
// Traces are generated beforehand (trace generation is the bug finder's
// job, not Hippocrates's).
func RunFig5() (*Fig5Result, error) {
	res := &Fig5Result{}
	targets := [][]*corpus.Program{
		corpus.ByTarget("pmdk"),
		{corpus.PCLHTProgram()},
		{corpus.MemcachedProgram()},
		{corpus.ByName("redis-flushfree")},
	}
	names := []string{"PMDK (unit tests)", "P-CLHT (RECIPE)", "memcached-pm", "Redis-pmem"}
	for i, programs := range targets {
		row := Fig5Row{Target: names[i]}
		type prepared struct {
			p   *corpus.Program
			mod moduleWithTrace
		}
		var preps []prepared
		for _, p := range programs {
			row.KLOC += float64(strings.Count(p.Source(), "\n")) / 1000
			m := p.MustCompile()
			run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			row.TraceEvents += len(run.Trace.Events)
			preps = append(preps, prepared{p: p, mod: moduleWithTrace{m, run.Trace, run.Check}})
		}
		var ms1, ms2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms1)
		// A recorder gives the phase breakdown; its cost is a handful of
		// span operations per program, noise next to the repair itself.
		rec := obs.New()
		root := rec.StartSpan("fig5")
		start := time.Now()
		for _, pr := range preps {
			if pr.mod.check.Clean() {
				continue
			}
			fixRes, err := core.Repair(pr.mod.mod, pr.mod.tr, pr.mod.check, core.Options{Obs: root})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", pr.p.Name, err)
			}
			row.Fixes += len(fixRes.Fixes)
		}
		row.Time = time.Since(start)
		root.End()
		runtime.ReadMemStats(&ms2)
		row.AllocBytes = ms2.TotalAlloc - ms1.TotalAlloc
		for _, pt := range rec.PhaseTotals() {
			switch pt.Name {
			case "alias-analyze":
				row.AliasTime = pt.Total
			case "plan":
				row.PlanTime = pt.Total
			case "apply":
				row.ApplyTime = pt.Total
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

type moduleWithTrace struct {
	mod   *ir.Module
	tr    *trace.Trace
	check *pmcheck.Result
}

// Render prints the Fig. 5 table.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Fig. 5 — Hippocrates offline overhead\n")
	fmt.Fprintf(&b, "%-20s %8s %12s %10s %10s %10s %12s %7s %8s\n",
		"target", "KLOC", "time", "alias", "plan", "apply", "alloc", "fixes", "events")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-20s %8.1f %12s %10s %10s %10s %12s %7d %8d\n",
			row.Target, row.KLOC, row.Time.Round(time.Microsecond),
			row.AliasTime.Round(time.Microsecond), row.PlanTime.Round(time.Microsecond),
			row.ApplyTime.Round(time.Microsecond),
			fmtBytes(row.AllocBytes), row.Fixes, row.TraceEvents)
	}
	return b.String()
}

func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}
