// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation (run them all
// with `go test -bench=. -benchmem`), plus micro-benchmarks for the
// substrate (interpreter, alias analysis, detector, fixer) and ablations
// for the design choices DESIGN.md calls out (hoisting on/off, Full-AA vs
// Trace-AA marks).
package repro_test

import (
	"runtime"
	"testing"

	"hippocrates/internal/alias"
	"hippocrates/internal/bench"
	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/schedule"
	"hippocrates/internal/study"
	"hippocrates/internal/trace"
	"hippocrates/internal/ycsb"
)

// ---- one benchmark per table/figure ----

// BenchmarkFig1BugStudy regenerates the §3 bug-study table.
func BenchmarkFig1BugStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		st := study.Aggregate()
		if st.AvgCommits != 13 || st.AvgDays != 28 || st.MaxDays != 66 {
			b.Fatalf("Fig. 1 aggregates drifted: %d/%d/%d", st.AvgCommits, st.AvgDays, st.MaxDays)
		}
	}
}

// BenchmarkFig3Accuracy regenerates the Fig. 3 fix-accuracy comparison.
func BenchmarkFig3Accuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig3()
		if err != nil {
			b.Fatal(err)
		}
		if res.Identical != 8 || res.Equivalent != 3 {
			b.Fatalf("verdicts = %d/%d, want 8/3", res.Identical, res.Equivalent)
		}
	}
}

// BenchmarkEffectiveness regenerates the §6.1 result (23/23 bugs fixed).
func BenchmarkEffectiveness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunEffectiveness()
		if err != nil {
			b.Fatal(err)
		}
		if res.Total != 23 {
			b.Fatalf("fixed %d bugs, want 23", res.Total)
		}
	}
}

// BenchmarkFig4RedisYCSB runs the §6.3 case study on a reduced
// configuration and reports the headline series as metrics.
func BenchmarkFig4RedisYCSB(b *testing.B) {
	cfg := bench.Fig4Config{Records: 300, Ops: 300, Trials: 2, Seed: 1}
	var last *bench.Fig4Result
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	if last != nil {
		lo, hi := last.SpeedupRange()
		b.ReportMetric(lo, "speedup-min")
		b.ReportMetric(hi, "speedup-max")
		for _, row := range last.Rows {
			if row.Workload == "Load" {
				b.ReportMetric(row.Get("RedisH-full").Mean, "load-full-ops/s")
				b.ReportMetric(row.Get("Redis-pm").Mean, "load-pm-ops/s")
				b.ReportMetric(row.Get("RedisH-intra").Mean, "load-intra-ops/s")
			}
		}
	}
}

// BenchmarkFig5Overhead measures Hippocrates's offline overhead per target.
func BenchmarkFig5Overhead(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5()
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 4 {
			b.Fatal("missing targets")
		}
	}
}

// BenchmarkSizeImpact measures the §6.4 code-size impact.
func BenchmarkSizeImpact(b *testing.B) {
	var added int
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSizeImpact()
		if err != nil {
			b.Fatal(err)
		}
		added = res.IRLinesAdded
	}
	b.ReportMetric(float64(added), "IR-lines-added")
}

// BenchmarkCrashSweep measures crash-schedule validation over the whole
// crashsim-able corpus (buggy and repaired build of every target), the
// quantity the COW/dedup fast path optimizes. The dedup sub-benchmark is
// the shipped configuration; no-dedup is the ablation arm that boots
// every image from scratch. Repair happens once, outside the timed loop.
func BenchmarkCrashSweep(b *testing.B) {
	targets, err := bench.PrepareCrashSweep()
	if err != nil {
		b.Fatal(err)
	}
	for _, cfg := range []struct {
		name    string
		noDedup bool
	}{{"dedup", false}, {"no-dedup", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			var last *bench.CrashSweepOutcome
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out, err := bench.RunCrashSweep(targets, cfg.noDedup)
				if err != nil {
					b.Fatal(err)
				}
				last = out
			}
			if last != nil {
				b.ReportMetric(float64(last.Schedules), "schedules")
				b.ReportMetric(float64(last.Failures), "failures")
				b.ReportMetric(float64(last.DedupedSchedules), "deduped")
				b.ReportMetric(float64(last.ImagesBuilt), "images")
			}
		})
	}
}

// ---- ablations ----

// BenchmarkAblationHoisting compares the full fixer against the
// intraprocedural-only configuration on flush-free Redis: the heuristic's
// value shows up as end-program throughput, its cost as fixer runtime.
func BenchmarkAblationHoisting(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"heuristic", false}, {"intra-only", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := corpus.ByName("redis-flushfree")
			for i := 0; i < b.N; i++ {
				m := p.MustCompile()
				res, err := core.RunAndRepair(m, p.Entry, core.Options{DisableHoisting: cfg.disable})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Fixed() {
					b.Fatal("repair incomplete")
				}
			}
		})
	}
}

// BenchmarkAblationMarks compares Full-AA and Trace-AA mark derivation.
func BenchmarkAblationMarks(b *testing.B) {
	for _, cfg := range []struct {
		name string
		mode core.MarksMode
	}{{"full-aa", core.FullAA}, {"trace-aa", core.TraceAA}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := corpus.ByName("redis-flushfree")
			for i := 0; i < b.N; i++ {
				m := p.MustCompile()
				if _, err := core.RunAndRepair(m, p.Entry, core.Options{Marks: cfg.mode}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---- substrate micro-benchmarks ----

const fibSrc = `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(18); }
`

// BenchmarkInterpreter measures raw simulated execution speed.
func BenchmarkInterpreter(b *testing.B) {
	m, err := lang.Compile("fib.pmc", fibSrc)
	if err != nil {
		b.Fatal(err)
	}
	var steps int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mach, err := interp.New(m, interp.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := mach.Run("main"); err != nil {
			b.Fatal(err)
		}
		steps = mach.Steps()
	}
	b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkCompiler measures the pmc front end on the Redis source.
func BenchmarkCompiler(b *testing.B) {
	p := corpus.ByName("redis-pmem")
	src := p.Source()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lang.Compile("redis.pmc", src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAndersen measures the whole-program points-to analysis.
func BenchmarkAndersen(b *testing.B) {
	m := corpus.ByName("redis-pmem").MustCompile()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alias.Analyze(m)
	}
}

// BenchmarkDetector measures pmcheck's trace replay on flush-free Redis,
// where pending stores only grow between durability points.
func BenchmarkDetector(b *testing.B) {
	p := corpus.ByName("redis-flushfree")
	m := p.MustCompile()
	tr, err := core.TraceModule(m, p.Entry)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pmcheck.Check(tr)
	}
	b.ReportMetric(float64(len(tr.Events)), "events")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tr.Events)), "ns/event")
}

// BenchmarkExplore measures interleaving exploration, the many short
// traced runs of threads repair: schedule.Explore over the concurrent
// corpus plus a few generated threaded programs. B/run is the heap bytes
// one explored interleaving costs (machine, trace, tracker, and the
// detector's replay), the quantity the small first arena chunks and the
// deferred durable image keep proportional to what a run records.
func BenchmarkExplore(b *testing.B) {
	type target struct {
		m     *ir.Module
		entry string
	}
	var targets []target
	for _, p := range corpus.MTPrograms() {
		targets = append(targets, target{p.MustCompile(), p.Entry})
	}
	for s := int64(0); s < 6; s++ {
		targets = append(targets, target{progen.Generate(s, progen.ThreadedConfig(s)), "main"})
	}
	var before, after runtime.MemStats
	runs := 0
	b.ReportAllocs()
	b.ResetTimer()
	runtime.ReadMemStats(&before)
	for i := 0; i < b.N; i++ {
		for _, t := range targets {
			res, err := schedule.Explore(t.m, t.entry, nil, schedule.Options{})
			if err != nil {
				b.Fatal(err)
			}
			runs += res.Explored
		}
	}
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(runs)/float64(b.N), "runs/op")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(runs), "B/run")
}

// BenchmarkFixPass measures Hippocrates's repair pass alone (analysis,
// planning, transformation — the Fig. 5 quantity).
func BenchmarkFixPass(b *testing.B) {
	p := corpus.ByName("redis-flushfree")
	proto := p.MustCompile()
	tr, err := core.TraceModule(proto, p.Entry)
	if err != nil {
		b.Fatal(err)
	}
	res := pmcheck.Check(tr)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m := ir.CloneModule(proto)
		b.StartTimer()
		if _, err := core.Repair(m, tr, res, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceRoundTrip measures trace serialization.
func BenchmarkTraceRoundTrip(b *testing.B) {
	p := corpus.ByName("redis-flushfree")
	m := p.MustCompile()
	tr, err := core.TraceModule(m, p.Entry)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text := tr.String()
		if _, err := trace.ParseString(text); err != nil {
			b.Fatal(err)
		}
	}
}

// layeredModule is the default layered progen module: the shape of the
// daemon's static-edits requests, about 400 KB of IR text.
func layeredModule() *ir.Module { return progen.Layered(progen.DefaultLayeredConfig()) }

// BenchmarkCloneModule measures the private copy the daemon takes of its
// cached compile for every job.
func BenchmarkCloneModule(b *testing.B) {
	m := layeredModule()
	b.ReportAllocs()
	for b.Loop() {
		ir.CloneModule(m)
	}
}

// BenchmarkPrint measures printing a module as IR text, as a repair
// response does with its repaired module.
func BenchmarkPrint(b *testing.B) {
	m := layeredModule()
	b.SetBytes(int64(len(ir.Print(m))))
	b.ReportAllocs()
	for b.Loop() {
		ir.Print(m)
	}
}

// BenchmarkRequestKey measures the two content keys the daemon hashes per
// job: the response-cache Key and the artifact-cache SourceKey.
func BenchmarkRequestKey(b *testing.B) {
	q := &cli.Request{Program: "layered.pmir", Source: ir.Print(layeredModule()), Static: true}
	b.SetBytes(int64(len(q.Source)))
	b.ReportAllocs()
	for b.Loop() {
		q.Key()
		q.SourceKey()
	}
}

// BenchmarkYCSBGenerator measures operation-stream generation.
func BenchmarkYCSBGenerator(b *testing.B) {
	g := ycsb.NewGenerator(ycsb.WorkloadA, 10000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Next()
	}
}

// BenchmarkAblationReduction measures the phase-2 fix-reduction ablation
// on flush-free Redis: the repair pass with and without reduction, with
// the resulting flush-instruction counts reported as metrics.
func BenchmarkAblationReduction(b *testing.B) {
	for _, cfg := range []struct {
		name    string
		disable bool
	}{{"reduce", false}, {"no-reduce", true}} {
		b.Run(cfg.name, func(b *testing.B) {
			p := corpus.ByName("redis-flushfree")
			var flushes int
			for i := 0; i < b.N; i++ {
				m := p.MustCompile()
				res, err := core.RunAndRepair(m, p.Entry, core.Options{DisableReduction: cfg.disable})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Fixed() {
					b.Fatal("repair incomplete")
				}
				flushes = 0
				for _, f := range m.Funcs {
					for _, blk := range f.Blocks {
						for _, in := range blk.Instrs {
							if in.Op == ir.OpFlush {
								flushes++
							}
						}
					}
				}
			}
			b.ReportMetric(float64(flushes), "flush-instrs")
		})
	}
}
