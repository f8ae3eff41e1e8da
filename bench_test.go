// Package repro_test holds the top-level benchmark harness: one testing.B
// benchmark per table and figure in the paper's evaluation (run them all
// with `go test -bench=. -benchmem`), plus micro-benchmarks for the
// substrate (interpreter, alias analysis, detector, fixer) and ablations
// for the design choices DESIGN.md calls out (hoisting on/off, Full-AA vs
// Trace-AA marks).
package repro_test

import (
	"context"
	"fmt"
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
	"hippocrates/internal/server"
	"hippocrates/internal/static"
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

// redisCommands is hippobench long-trace's redis command loop: a seeded
// LCG picks keys and arguments, the opcode walks all eight commands in
// turn, and a durability point follows every command.
const redisCommands = `
int bench_drive(int seed, int n) {
	int s = seed;
	int acc = 0;
	for (int i = 0; i < n; i++) {
		s = (s * 1103515245 + 12345) % 2147483648;
		int op = 1 + i % 8;
		int key = (s / 256) % 48;
		int arg = s % 1000;
		if (op == 4) { arg = arg % 16; }
		int r = cmd_exec(op, key, arg);
		acc = (acc * 31 + r + 7) % 1000000007;
		pm_checkpoint();
	}
	return acc;
}
`

// BenchmarkInterpreter measures raw simulated execution speed in IR
// instructions per second: fib is calls and arithmetic and touches no
// memory; redis-flushfree runs long-trace's redis command loop (seed 3, 200
// commands) untracked (NoTrack), so its loads and stores measure the
// interpreter and its page map without the durability tracker.
func BenchmarkInterpreter(b *testing.B) {
	cases := []struct {
		name, file, src, entry string
		args                   []uint64
		opts                   interp.Options
	}{
		{"fib", "fib.pmc", fibSrc, "main", nil, interp.Options{}},
		{"redis-flushfree", "redis-flushfree.pmc", corpus.ByName("redis-flushfree").Source() + redisCommands,
			"bench_drive", []uint64{3, 200}, interp.Options{NoTrack: true}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			m, err := lang.Compile(c.file, c.src)
			if err != nil {
				b.Fatal(err)
			}
			var steps int64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mach, err := interp.New(m, c.opts)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mach.Run(c.entry, c.args...); err != nil {
					b.Fatal(err)
				}
				steps = mach.Steps()
			}
			b.ReportMetric(float64(steps)*float64(b.N)/b.Elapsed().Seconds(), "instrs/s")
		})
	}
}

// BenchmarkTracedRun measures one traced, tracked run of a corpus
// workload without the detector: machine, durability tracker, trace
// events and their call stacks. B/op is what a check
// request's interpreter run allocates; interned call stacks keep the
// frames at one copy per distinct stack instead of one per event.
func BenchmarkTracedRun(b *testing.B) {
	for _, name := range []string{"redis-pmem", "pclht", "memcached"} {
		b.Run(name, func(b *testing.B) {
			p := corpus.ByName(name)
			m := p.MustCompile()
			events := 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr := &trace.Trace{Program: m.Name}
				mach, err := interp.New(m, interp.Options{Trace: tr})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := mach.Run(p.Entry); err != nil {
					b.Fatal(err)
				}
				events = len(tr.Events)
			}
			b.ReportMetric(float64(events), "events")
		})
	}
}

// BenchmarkTraceAndCheck measures the pipeline's trace and detect steps
// together, as core.TraceAndCheck makes them for a check request: the
// traced interpreter run with the detector running on its tracker. B/op
// is the allocation of both steps; redis-flushfree keeps every store
// pending until a durability point, the detector's worst case.
func BenchmarkTraceAndCheck(b *testing.B) {
	for _, name := range []string{"redis-flushfree", "pclht", "memcached"} {
		b.Run(name, func(b *testing.B) {
			p := corpus.ByName(name)
			m := p.MustCompile()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
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
	run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Trace
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
// one explored interleaving costs: its verdict, memory and tracker
// records, since every run after the first records into the machine,
// trace and online detector the run before it finished with.
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
	run, err := core.TraceAndCheck(nil, proto, p.Entry, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Trace
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
	run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	tr := run.Trace
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

// BenchmarkCloneModule measures the private copy the daemon takes of a
// source's cached compile for each of its jobs from the second on.
func BenchmarkCloneModule(b *testing.B) {
	m := layeredModule()
	b.ReportAllocs()
	for b.Loop() {
		ir.CloneModule(m)
	}
}

// BenchmarkParseModule measures parsing a module's IR text, as the daemon
// does once per static-repair request.
func BenchmarkParseModule(b *testing.B) {
	text := ir.Print(layeredModule())
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := ir.ParseModule(text); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures the verify every .pmir module pays where it
// enters the pipeline, and every repair pays on its output.
func BenchmarkVerify(b *testing.B) {
	m := layeredModule()
	b.ReportAllocs()
	for b.Loop() {
		if err := ir.Verify(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStaticRepair measures one static repair of the layered module
// on a clone of a parsed module, which stands in for the fresh parse a
// daemon job repairs, with no fingerprint memoized and no summary store
// shared between runs.
func BenchmarkStaticRepair(b *testing.B) {
	parsed, err := ir.ParseModule(ir.Print(layeredModule()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		res, err := core.StaticRepair(ir.CloneModule(parsed), "main", core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.Fix == nil || !res.After.Clean() {
			b.Fatal("static repair did not leave the layered module clean")
		}
	}
}

// BenchmarkStaticAnalyze measures one cold static analysis of corpus
// redis-pmem from trace_main with no summary store: the alias solve and
// the bottom-up persistency dataflow over every reachable function.
func BenchmarkStaticAnalyze(b *testing.B) {
	m := corpus.ByName("redis-pmem").MustCompile()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := static.AnalyzeWithStore(m, "trace_main", nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServerStaticJob measures one daemon static repair end to end
// through server.Submit, as a static-edits request runs it: every op
// submits a layered source no earlier op sent (a leading IR comment
// differs), so it misses the response and artifact caches and pays for
// compile, repair and encoding, against a summary store the earlier ops
// warmed. Building the 400 KB source counts against each op.
func BenchmarkServerStaticJob(b *testing.B) {
	text := ir.Print(layeredModule())
	srv := server.New(server.Config{Workers: 1})
	defer srv.Shutdown(context.Background())
	b.ReportAllocs()
	op := 0
	for b.Loop() {
		op++
		j, err := srv.Submit(&cli.Request{Program: "layered.pmir",
			Source: fmt.Sprintf("; op %d\n%s", op, text), Mode: cli.ModeRepair, Static: true})
		if err != nil {
			b.Fatal(err)
		}
		<-j.Done()
		if j.State() != server.StateDone || j.CacheHit() {
			b.Fatalf("op %d: state %s, cache hit %v, err %v", op, j.State(), j.CacheHit(), j.Err())
		}
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
