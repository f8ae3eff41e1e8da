// Command hippobench is the repository's benchmark: five seeded workloads
// driven through the command-line and daemon paths, every answer checked
// against known answers, end-to-end metrics from an untraced run and
// per-layer metrics from a separate traced run.
//
//	hippobench -seed 1 -out DIR          all workloads; DIR/results.json and DIR/spans-*.json
//	hippobench -compare A1,A2,A3 B1,B2,B3
//	                                     judge results files B against A, pair by pair;
//	                                     exits non-zero if a gated pair regressed or is unresolved
//	hippobench -workload W -seed N -seconds S -trace 0|1
//	                                     one workload for S seconds; last line is a JSON result
//
// Add -cpuprofile FILE to profile the traced runs; every layer call runs
// under pprof labels "layer" and "workload" (go tool pprof -tagfocus).
// run.sh builds and runs it inside the checkout.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"hippocrates/internal/benchmark"
)

func main() {
	seed := flag.Int64("seed", 1, "workload seed")
	out := flag.String("out", "", "write results.json and spans-<workload>.json to `dir`")
	quick := flag.Bool("quick", false, "one tiny pass per workload")
	workload := flag.String("workload", "", "run only the named workload")
	seconds := flag.Float64("seconds", 0, "time each phase for `s` seconds and print one JSON result line (needs -workload)")
	traced := flag.Int("trace", 0, "with -seconds: 1 prints the per-layer metrics instead of the end-to-end ones")
	compare := flag.String("compare", "", "compare results files: -compare A1,A2,... B1,B2,...")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the traced runs to `file`")
	flag.Parse()

	var err error
	switch {
	case *compare != "":
		err = runCompare(*compare, flag.Arg(0))
	case *seconds > 0:
		err = runOne(*workload, *seed, *seconds, *traced == 1, *cpuprofile)
	default:
		err = runAll(*workload, *seed, *quick, *out, *cpuprofile)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hippobench:", err)
		os.Exit(1)
	}
}

func runCompare(as, bs string) error {
	if bs == "" {
		return fmt.Errorf("-compare needs a second list of results files")
	}
	load := func(list string) ([]*benchmark.Results, error) {
		var out []*benchmark.Results
		for _, p := range strings.Split(list, ",") {
			r, err := benchmark.ReadResults(p)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	}
	a, err := load(as)
	if err != nil {
		return err
	}
	b, err := load(bs)
	if err != nil {
		return err
	}
	if bad := benchmark.CompareRuns(os.Stdout, a, b); bad > 0 {
		return fmt.Errorf("%d gated (metric, workload) pair(s) regressed or unresolved", bad)
	}
	return nil
}

// startProfile starts a CPU profile when path is set and returns its stop.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}

func selected(name string) ([]*benchmark.Workload, error) {
	if name == "" {
		return benchmark.Workloads(), nil
	}
	w := benchmark.ByName(name)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", name)
	}
	return []*benchmark.Workload{w}, nil
}

// runOne measures one workload for a fixed time and prints the JSON line.
// The traced variant first times a third of the span untraced, for the
// layer metrics that are set against the end-to-end mean.
func runOne(name string, seed int64, seconds float64, traced bool, profile string) error {
	if name == "" {
		return fmt.Errorf("-seconds needs -workload")
	}
	ws, err := selected(name)
	if err != nil {
		return err
	}
	w := ws[0]
	o := benchmark.Options{Seed: seed, Seconds: seconds, Log: os.Stderr}
	var l *benchmark.Layers
	var e *benchmark.E2E
	if !traced {
		if e, err = benchmark.RunE2E(w, o); err != nil {
			return err
		}
	} else {
		o.Seconds, o.Setups = seconds/3, 1
		if e, err = benchmark.RunE2E(w, o); err != nil {
			return err
		}
		stop, err := startProfile(profile)
		if err != nil {
			return err
		}
		l, err = benchmark.RunTraced(w, o, e, time.Duration(seconds*2/3*float64(time.Second)))
		if err := stop(); err != nil {
			return err
		}
		if err != nil {
			return err
		}
	}
	line, err := benchmark.ResultLine(e, l)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if e.Failed > 0 {
		return fmt.Errorf("%s: %d of %d request(s) failed: %s", w.Name, e.Failed, e.Attempted, strings.Join(e.Errors, "; "))
	}
	return nil
}

// runAll runs each workload's end-to-end phase, then each traced run.
func runAll(name string, seed int64, quick bool, out, profile string) error {
	ws, err := selected(name)
	if err != nil {
		return err
	}
	if out != "" {
		if err := os.MkdirAll(out, 0o755); err != nil {
			return err
		}
	}
	o := benchmark.Options{Seed: seed, Quick: quick, Log: os.Stderr}
	res := benchmark.NewResults(seed)
	e2e := map[string]*benchmark.E2E{}
	failed := 0
	for _, w := range ws {
		e, err := benchmark.RunE2E(w, o)
		if err != nil {
			return err
		}
		e2e[w.Name] = e
		benchmark.Print(os.Stdout, w.Name, e.Values())
		failed += e.Failed
		for _, msg := range e.Errors {
			fmt.Fprintf(os.Stderr, "%s: FAILED: %s\n", w.Name, msg)
		}
	}
	stop, err := startProfile(profile)
	if err != nil {
		return err
	}
	for _, w := range ws {
		l, err := benchmark.RunTraced(w, o, e2e[w.Name], 6*time.Second)
		if err != nil {
			stop()
			return err
		}
		benchmark.Print(os.Stdout, w.Name, l.Values)
		if out != "" {
			if err := l.WriteSpans(filepath.Join(out, "spans-"+w.Name+".json")); err != nil {
				stop()
				return err
			}
		}
		res.Workloads = append(res.Workloads, benchmark.NewWorkloadResult(e2e[w.Name], l))
	}
	if err := stop(); err != nil {
		return err
	}
	if out != "" {
		if err := res.Write(filepath.Join(out, "results.json")); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d request(s) failed", failed)
	}
	return nil
}
