package bench

import (
	"fmt"
	"math"
	"strings"
	"sync"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/ycsb"
)

// RedisBuilds holds the three §6.3 Redis builds.
type RedisBuilds struct {
	// Baseline is Redis-pmem: developer-written persistence.
	Baseline *ir.Module
	// Full is RedisH-full: all flushes inserted by Hippocrates with the
	// hoisting heuristic enabled.
	Full *ir.Module
	// Intra is RedisH-intra: hoisting disabled, intraprocedural fixes only.
	Intra *ir.Module

	// FullFixes / IntraFixes count the applied fixes (paper: 50).
	FullFixes  int
	IntraFixes int
	// FullInterproc counts RedisH-full's interprocedural fixes (paper:
	// 12/50), with HoistDepths the depth histogram (paper: 10 one level
	// up, 2 two levels up).
	FullInterproc int
	HoistDepths   map[int]int
}

// BuildRedisVariants prepares the three builds exactly as §6.3 does:
// start from flush-free Redis (flushes removed, fences kept), trace it,
// and let Hippocrates insert every persistence mechanism — once with the
// heuristic, once restricted to intraprocedural fixes.
func BuildRedisVariants() (*RedisBuilds, error) {
	out := &RedisBuilds{HoistDepths: map[int]int{}}
	base := corpus.ByName("redis-pmem")
	ff := corpus.ByName("redis-flushfree")

	var err error
	if out.Baseline, err = base.Compile(); err != nil {
		return nil, err
	}

	full := ff.MustCompile()
	resFull, err := core.RunAndRepair(full, ff.Entry, core.Options{})
	if err != nil {
		return nil, fmt.Errorf("RedisH-full: %w", err)
	}
	if !resFull.Fixed() {
		return nil, fmt.Errorf("RedisH-full still buggy:\n%s", resFull.After.Summary())
	}
	out.Full = full
	out.FullFixes = len(resFull.Fix.Fixes)
	out.FullInterproc = resFull.Fix.InterprocFixes()
	for _, fx := range resFull.Fix.Fixes {
		if fx.Kind.Interprocedural() {
			out.HoistDepths[fx.HoistDepth]++
		}
	}

	intra := ff.MustCompile()
	resIntra, err := core.RunAndRepair(intra, ff.Entry, core.Options{DisableHoisting: true})
	if err != nil {
		return nil, fmt.Errorf("RedisH-intra: %w", err)
	}
	if !resIntra.Fixed() {
		return nil, fmt.Errorf("RedisH-intra still buggy:\n%s", resIntra.After.Summary())
	}
	out.Intra = intra
	out.IntraFixes = len(resIntra.Fix.Fixes)
	return out, nil
}

// Fig4Config parameterizes the YCSB runs. The paper uses 10k records, 10k
// operations and 20 trials; smaller settings keep CI runs fast with the
// same shape.
type Fig4Config struct {
	Records int64
	Ops     int
	Trials  int
	Seed    int64
}

// DefaultFig4Config mirrors the paper's setup.
func DefaultFig4Config() Fig4Config {
	return Fig4Config{Records: 10000, Ops: 10000, Trials: 20, Seed: 1}
}

// QuickFig4Config is a reduced configuration with the same shape.
func QuickFig4Config() Fig4Config {
	return Fig4Config{Records: 600, Ops: 600, Trials: 5, Seed: 1}
}

// Series is the measured throughput of one build on one workload.
type Series struct {
	Build string
	// Mean is the mean throughput in operations per simulated second.
	Mean float64
	// CI95 is the 95% confidence half-interval across trials.
	CI95 float64
}

// Fig4Row is one workload's result triple.
type Fig4Row struct {
	Workload string
	Series   []Series // RedisH-intra, Redis-pm, RedisH-full (paper order)
}

// Get returns the named build's series.
func (r *Fig4Row) Get(build string) *Series {
	for i := range r.Series {
		if r.Series[i].Build == build {
			return &r.Series[i]
		}
	}
	return nil
}

// Fig4Result is the full Fig. 4 dataset.
type Fig4Result struct {
	Config Fig4Config
	Rows   []Fig4Row // Load, A, B, C, D, E, F
	Builds *RedisBuilds
}

// BuildNames in the paper's legend order.
var BuildNames = []string{"RedisH-intra", "Redis-pm", "RedisH-full"}

// RunFig4 executes the case study: for each build and workload, load the
// store and drive the YCSB operation mix, measuring simulated throughput.
func RunFig4(cfg Fig4Config) (*Fig4Result, error) {
	builds, err := BuildRedisVariants()
	if err != nil {
		return nil, err
	}
	res := &Fig4Result{Config: cfg, Builds: builds}
	modules := map[string]*ir.Module{
		"RedisH-intra": builds.Intra,
		"Redis-pm":     builds.Baseline,
		"RedisH-full":  builds.Full,
	}
	rows := make([]Fig4Row, 0, 7)
	rows = append(rows, Fig4Row{Workload: "Load"})
	for _, wl := range ycsb.AllStandard() {
		rows = append(rows, Fig4Row{Workload: wl.Name})
	}
	// Each build measures on its own machines; run them concurrently
	// (results are deterministic per build: fixed generator seeds).
	perBuild := make(map[string]map[string][]float64, len(BuildNames))
	errs := make(map[string]error, len(BuildNames))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, name := range BuildNames {
		wg.Add(1)
		go func(name string, mod *ir.Module) {
			defer wg.Done()
			out, err := runYCSB(mod, cfg)
			mu.Lock()
			perBuild[name], errs[name] = out, err
			mu.Unlock()
		}(name, modules[name])
	}
	wg.Wait()
	for _, name := range BuildNames {
		if err := errs[name]; err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		for i := range rows {
			mean, ci := meanCI(perBuild[name][rows[i].Workload])
			rows[i].Series = append(rows[i].Series, Series{Build: name, Mean: mean, CI95: ci})
		}
	}
	res.Rows = rows
	return res, nil
}

// runYCSB measures one build across Load and the six workloads, returning
// per-trial throughputs keyed by workload name.
func runYCSB(mod *ir.Module, cfg Fig4Config) (map[string][]float64, error) {
	out := map[string][]float64{}
	for _, wl := range ycsb.AllStandard() {
		mach, err := interp.New(mod, interp.Options{StepLimit: 1 << 62})
		if err != nil {
			return nil, err
		}
		// Load phase (timed; reported as the "Load" series, measured on
		// every workload's fresh store and aggregated across them).
		start := mach.SimTime()
		for _, op := range ycsb.LoadOps(cfg.Records) {
			if _, err := mach.Run("cmd_set", uint64(op.Key), uint64(op.Value)); err != nil {
				return nil, err
			}
		}
		loadSecs := (mach.SimTime() - start) / 1e9
		out["Load"] = append(out["Load"], float64(cfg.Records)/loadSecs)

		gen := ycsb.NewGenerator(wl, cfg.Records, cfg.Seed)
		for trial := 0; trial < cfg.Trials; trial++ {
			t0 := mach.SimTime()
			for i := 0; i < cfg.Ops; i++ {
				if err := dispatch(mach, gen.Next()); err != nil {
					return nil, err
				}
			}
			secs := (mach.SimTime() - t0) / 1e9
			out[wl.Name] = append(out[wl.Name], float64(cfg.Ops)/secs)
		}
		// Every measured build must be durability-clean: each command is
		// a durability point (the implicit per-run checkpoint).
		if n := mach.NumViolations(); n > 0 {
			return nil, fmt.Errorf("workload %s: %d durability violations in a measured build", wl.Name, n)
		}
	}
	return out, nil
}

func dispatch(mach *interp.Machine, op ycsb.Op) error {
	var err error
	switch op.Kind {
	case ycsb.OpRead:
		_, err = mach.Run("cmd_get", uint64(op.Key))
	case ycsb.OpUpdate, ycsb.OpInsert:
		_, err = mach.Run("cmd_set", uint64(op.Key), uint64(op.Value))
	case ycsb.OpScan:
		_, err = mach.Run("cmd_scan", uint64(op.Key), uint64(op.ScanLen))
	case ycsb.OpRMW:
		_, err = mach.Run("cmd_rmw", uint64(op.Key))
	}
	return err
}

func meanCI(samples []float64) (float64, float64) {
	if len(samples) == 0 {
		return 0, 0
	}
	sum := 0.0
	for _, s := range samples {
		sum += s
	}
	mean := sum / float64(len(samples))
	if len(samples) < 2 {
		return mean, 0
	}
	varsum := 0.0
	for _, s := range samples {
		varsum += (s - mean) * (s - mean)
	}
	sd := math.Sqrt(varsum / float64(len(samples)-1))
	// 1.96 standard errors ~ 95% CI.
	return mean, 1.96 * sd / math.Sqrt(float64(len(samples)))
}

// SpeedupRange returns the min and max RedisH-full / RedisH-intra
// throughput ratios over the workloads (paper: 2.4–11.7×).
func (r *Fig4Result) SpeedupRange() (lo, hi float64) {
	lo, hi = math.Inf(1), 0
	for _, row := range r.Rows {
		full := row.Get("RedisH-full")
		intra := row.Get("RedisH-intra")
		if full == nil || intra == nil || intra.Mean == 0 {
			continue
		}
		ratio := full.Mean / intra.Mean
		if ratio < lo {
			lo = ratio
		}
		if ratio > hi {
			hi = ratio
		}
	}
	return lo, hi
}

// LoadGain returns RedisH-full's throughput gain over Redis-pm on the
// Load workload (paper: +7%).
func (r *Fig4Result) LoadGain() float64 {
	for _, row := range r.Rows {
		if row.Workload == "Load" {
			pm := row.Get("Redis-pm")
			full := row.Get("RedisH-full")
			if pm != nil && full != nil && pm.Mean > 0 {
				return full.Mean/pm.Mean - 1
			}
		}
	}
	return 0
}

// Render prints the Fig. 4 series.
func (r *Fig4Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 4 — YCSB throughput (ops per simulated second), records=%d ops=%d trials=%d\n",
		r.Config.Records, r.Config.Ops, r.Config.Trials)
	fmt.Fprintf(&b, "%-9s", "workload")
	for _, n := range BuildNames {
		fmt.Fprintf(&b, " %22s", n)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s", row.Workload)
		for _, s := range row.Series {
			fmt.Fprintf(&b, " %14.0f ±%6.0f", s.Mean, s.CI95)
		}
		b.WriteString("\n")
	}
	lo, hi := r.SpeedupRange()
	fmt.Fprintf(&b, "RedisH-full vs RedisH-intra speedup: %.1fx–%.1fx (paper: 2.4x–11.7x)\n", lo, hi)
	fmt.Fprintf(&b, "RedisH-full vs Redis-pm on Load: %+.1f%% (paper: +7%%)\n", 100*r.LoadGain())
	fmt.Fprintf(&b, "fixes applied: %d (%d interprocedural; hoist depths %v) — paper: 50 fixes, 12 interprocedural\n",
		r.Builds.FullFixes, r.Builds.FullInterproc, r.Builds.HoistDepths)
	return b.String()
}
