// Command pmvm runs a pmc program (or textual IR module) on the simulated
// persistent-memory machine and reports its result, simulated time, and
// any durability violations observed at the run's durability points.
//
// Usage:
//
//	pmvm [flags] program.pmc [intarg ...]
//
// Flags:
//
//	-entry NAME      entry function (default "main")
//	-trace FILE      write the PM-operation trace to FILE
//	-print-ir        print the lowered IR instead of running
//	-steplimit N     instruction budget per run (default 100M)
//	-crash           crash-schedule validation: crash the program at PM
//	                 event boundaries and run its recovery entries on
//	                 every feasible post-crash image (exit 1 on failure)
//	-invariant NAME  structural recovery entry for -crash
//	                 (default invariant_check; "-" disables)
//	-recovery NAME   durability-promise recovery entry for -crash
//	                 (default crash_check; "-" disables)
//	-crash-points N  crash-point budget for -crash (default 256)
//	-crash-images N  per-point schedule budget for -crash (default 16)
//	-threads         interleaving-aware mode: explore the workload's
//	                 thread schedules (bounded, with persistence-aware
//	                 partial-order reduction) and report the verdict per
//	                 interleaving; with -crash every explored
//	                 interleaving is crash-swept
//	-max-schedules N schedule budget for -threads (0 = default)
//	-sched ID        replay one interleaving on the plain run: "rr" for
//	                 round-robin or a "c:…" id printed by -threads
//	-metrics FILE    write counters/histograms/phase timings as JSON
//	-spans FILE      write the span tree as Chrome trace_event JSON
//	-audit           print the repair audit trail (always empty here: pmvm
//	                 executes, it never repairs)
//
// The -crash path runs through cli.Run, the same entrypoint hippocrates
// and hippocratesd use.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

func main() {
	entry := flag.String("entry", "main", "entry function")
	traceOut := flag.String("trace", "", "write the PM trace to this file")
	printIR := flag.Bool("print-ir", false, "print the lowered IR and exit")
	crash := flag.Bool("crash", false, "crash-schedule validation instead of a plain run")
	invariant := flag.String("invariant", "", "structural recovery entry for -crash (default invariant_check)")
	recovery := flag.String("recovery", "", "durability-promise recovery entry for -crash (default crash_check)")
	crashPoints := flag.Int("crash-points", 0, "crash-point budget for -crash (0 = default)")
	crashImages := flag.Int("crash-images", 0, "per-point schedule budget for -crash (0 = default)")
	threads := flag.Bool("threads", false, "explore thread interleavings instead of one round-robin run")
	maxSchedules := flag.Int("max-schedules", 0, "schedule budget for -threads (0 = default)")
	sched := flag.String("sched", "", "replay one interleaving on the plain run (\"rr\" or a \"c:…\" id)")
	var limits cli.LimitFlags
	limits.Register()
	var obsFlags cli.ObsFlags
	obsFlags.Register()
	flag.Parse()
	usage := func(msg string) {
		fmt.Fprintln(os.Stderr, "pmvm:", msg)
		os.Exit(2)
	}
	if err := limits.Validate(); err != nil {
		usage(err.Error())
	}
	if !*crash {
		// The crash-validation knobs configure a mode that is off; reject
		// them rather than silently ignoring them.
		switch {
		case *invariant != "":
			usage("-invariant only applies with -crash")
		case *recovery != "":
			usage("-recovery only applies with -crash")
		case *crashPoints != 0:
			usage("-crash-points only applies with -crash")
		case *crashImages != 0:
			usage("-crash-images only applies with -crash")
		}
	} else {
		if *crashPoints < 0 {
			usage("-crash-points must be >= 0")
		}
		if *crashImages < 0 {
			usage("-crash-images must be >= 0")
		}
	}
	if !*threads && *maxSchedules != 0 {
		usage("-max-schedules only applies with -threads")
	}
	if *maxSchedules < 0 {
		usage("-max-schedules must be >= 0")
	}
	var schedChoices []int
	if *sched != "" {
		if *threads {
			usage("-sched replays one interleaving; -threads explores many (pick one)")
		}
		if *crash {
			usage("-sched only applies to the plain run (use -crash -threads to sweep interleavings)")
		}
		var err error
		schedChoices, err = interp.ParseScheduleID(*sched)
		if err != nil {
			usage(err.Error())
		}
	}
	if *threads && *traceOut != "" {
		usage("-trace captures a single run; replay one interleaving with -sched instead")
	}
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: pmvm [flags] program.pmc [intarg ...]")
		flag.PrintDefaults()
		os.Exit(2)
	}
	cfg := runCfg{
		entry: *entry, traceOut: *traceOut, printIR: *printIR, crash: *crash,
		invariant: *invariant, recovery: *recovery,
		crashPoints: *crashPoints, crashImages: *crashImages,
		threads: *threads, maxSchedules: *maxSchedules,
		schedID: *sched, schedChoices: schedChoices,
	}
	if err := run(flag.Arg(0), flag.Args()[1:], cfg, limits, obsFlags); err != nil {
		fmt.Fprintln(os.Stderr, "pmvm:", err)
		os.Exit(1)
	}
}

// runCfg carries the parsed, validated flag set into run.
type runCfg struct {
	entry, traceOut     string
	printIR, crash      bool
	invariant, recovery string
	crashPoints         int
	crashImages         int
	threads             bool
	maxSchedules        int
	schedID             string
	schedChoices        []int
}

func run(path string, argStrs []string, cfg runCfg,
	limits cli.LimitFlags, obsFlags cli.ObsFlags) error {
	rec := obsFlags.NewRecorder()
	root := rec.StartSpan("pmvm")
	root.SetAttr("program", path)

	args := make([]uint64, len(argStrs))
	for i, s := range argStrs {
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			return fmt.Errorf("argument %q is not an integer", s)
		}
		args[i] = uint64(v)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	req := &cli.Request{
		Program:      filepath.Base(path),
		Source:       string(src),
		Mode:         cli.ModeCrash,
		Entry:        cfg.entry,
		Args:         args,
		Invariant:    cfg.invariant,
		Recovery:     cfg.recovery,
		CrashPoints:  cfg.crashPoints,
		CrashImages:  cfg.crashImages,
		Threads:      cfg.threads,
		MaxSchedules: cfg.maxSchedules,
		StepLimit:    limits.StepLimit,
		CrashLog:     os.Stdout,
	}
	if !cfg.crash {
		// Compile-only request shape: the plain run below executes the
		// module itself (stdout, violations, simulated time).
		req.Mode = cli.ModeCheck
	}

	if cfg.crash {
		resp, err := cli.Run(req, root)
		if err != nil {
			return err
		}
		var failed int
		if cfg.threads {
			// Threads mode sweeps every explored interleaving; the
			// per-schedule reports replace the single CrashReport.
			failed = printScheduleCrash(resp)
		} else {
			fmt.Print(resp.CrashReport.Summary())
			failed = len(resp.CrashReport.Failures)
		}
		root.End()
		if err := obsFlags.Finish(rec, os.Stdout); err != nil {
			return err
		}
		if !resp.Fixed {
			return fmt.Errorf("%d crash point(s) failed recovery", failed)
		}
		return nil
	}

	mod, err := cli.CompileRequest(req, root)
	if err != nil {
		return err
	}
	if cfg.printIR {
		fmt.Print(ir.Print(mod))
		return nil
	}

	if cfg.threads {
		// Exploration run: execute the workload under every schedule the
		// bounded search (with persistence-aware POR) reaches, and report
		// the verdict per interleaving.
		ex, err := core.ExploreModule(mod, cfg.entry, core.Options{
			Obs: root, StepLimit: limits.StepLimit, MaxSchedules: cfg.maxSchedules,
		}, args...)
		if err != nil {
			return err
		}
		printExploration(cfg.entry, ex)
		root.End()
		return obsFlags.Finish(rec, os.Stdout)
	}

	var tr *trace.Trace
	if cfg.traceOut != "" || obsFlags.Enabled() {
		tr = &trace.Trace{Program: mod.Name}
	}
	mach, err := interp.New(mod, interp.Options{
		Trace: tr, Stdout: os.Stdout, StepLimit: limits.StepLimit,
		Schedule: cfg.schedChoices,
	})
	if err != nil {
		return err
	}
	xsp := root.Start("execute")
	xsp.SetAttr("entry", cfg.entry)
	if cfg.schedID != "" {
		xsp.SetAttr("schedule", cfg.schedID)
	}
	ret, err := mach.Run(cfg.entry, args...)
	mach.RecordObs(xsp)
	if tr != nil {
		xsp.Add("trace.events", int64(len(tr.Events)))
		for k, n := range tr.KindCounts() {
			if n > 0 {
				xsp.Add("trace.event."+trace.Kind(k).String(), int64(n))
			}
		}
	}
	xsp.End()
	if err != nil {
		return err
	}
	fmt.Printf("pmvm: @%s returned %d\n", cfg.entry, int64(ret))
	if cfg.schedID != "" {
		fmt.Printf("pmvm: replayed schedule %s\n", cfg.schedID)
	}
	fmt.Printf("pmvm: %d instructions, %.0f simulated ns\n", mach.Steps(), mach.SimTime())
	if n := mach.NumViolations(); n > 0 {
		fmt.Printf("pmvm: %d durability violation(s) observed (run pmcheck for details)\n", n)
	} else {
		fmt.Println("pmvm: all PM stores durable at every durability point")
	}
	if tr != nil && cfg.traceOut != "" {
		if err := cli.WriteTrace(tr, cfg.traceOut); err != nil {
			return err
		}
		fmt.Printf("pmvm: wrote %d trace events to %s\n", len(tr.Events), cfg.traceOut)
	}
	root.End()
	return obsFlags.Finish(rec, os.Stdout)
}

// printExploration renders a plain -threads run: one verdict line per
// explored interleaving plus the search accounting.
func printExploration(entry string, ex *schedule.Result) {
	maxThreads := 0
	for _, r := range ex.Runs {
		if r.Threads > maxThreads {
			maxThreads = r.Threads
		}
	}
	fmt.Printf("pmvm: explored %d interleaving(s) (%d pruned by POR, %d thread(s))\n",
		ex.Explored, ex.Pruned, maxThreads)
	for _, r := range ex.Runs {
		verdict := "clean"
		if r.Check != nil && !r.Check.Clean() {
			verdict = fmt.Sprintf("%d report(s)", len(r.Check.Reports))
		}
		fmt.Printf("pmvm:   %-16s @%s returned %d: %s\n", r.ID, entry, int64(r.Ret), verdict)
	}
	if ex.Truncated {
		fmt.Println("pmvm: schedule budget exhausted with interleavings unexplored (raise -max-schedules)")
	}
	if bad := ex.FirstBuggy(); bad != nil {
		fmt.Printf("pmvm: first buggy schedule %s (replay with -sched %s)\n", bad.ID, bad.ID)
	} else {
		fmt.Println("pmvm: all explored interleavings clean")
	}
}

// printScheduleCrash renders a -crash -threads response: the exploration
// summary plus one pass/fail line per crash-swept interleaving. It
// returns the total failed-schedule count across sweeps.
func printScheduleCrash(resp *cli.Response) int {
	if s := resp.Schedules; s != nil {
		fmt.Printf("pmvm: explored %d interleaving(s) (%d pruned by POR, %d thread(s)), %d crash point(s) swept\n",
			s.Stats.SchedulesExplored, s.Stats.SchedulesPruned, s.Threads, s.Stats.CrashPoints)
	}
	failed := 0
	for _, sc := range resp.CrashBySchedule {
		verdict := "passed"
		if !sc.Report.Passed {
			verdict = fmt.Sprintf("FAILED (%d schedule(s))", len(sc.Report.Failures))
			failed += len(sc.Report.Failures)
		}
		fmt.Printf("pmvm:   %-16s %d crash point(s), %d image(s): %s\n",
			sc.Schedule, sc.Report.Points, sc.Report.Schedules, verdict)
	}
	return failed
}
