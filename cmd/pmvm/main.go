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
// The -crash and -threads paths run through cli.Run, the same entrypoint
// hippocrates and hippocratesd use, and every invocation fills one
// cli.Request whose Validate decides which flag combinations are valid.
//
// Exit status is 1 when a run fails or a crash point fails recovery, and
// 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"hippocrates/internal/cli"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
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
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "pmvm:", err)
		os.Exit(1)
	}
	path := flag.Arg(0)
	args := make([]uint64, flag.NArg()-1)
	for i, s := range flag.Args()[1:] {
		v, err := strconv.ParseInt(s, 0, 64)
		if err != nil {
			fail(fmt.Errorf("argument %q is not an integer", s))
		}
		args[i] = uint64(v)
	}
	src, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	// Crash mode runs the whole pipeline behind cli.Run; check mode is
	// the compile-only request shape of the plain run (which executes the
	// module itself: stdout, violations, simulated time) and the request
	// -threads explores.
	req := &cli.Request{
		Program:      filepath.Base(path),
		Source:       string(src),
		Mode:         cli.ModeCheck,
		Entry:        *entry,
		Args:         args,
		Invariant:    *invariant,
		Recovery:     *recovery,
		CrashPoints:  *crashPoints,
		CrashImages:  *crashImages,
		Threads:      *threads,
		MaxSchedules: *maxSchedules,
		StepLimit:    limits.StepLimit,
	}
	if *crash {
		req.Mode = cli.ModeCrash
		req.CrashLog = os.Stdout
	}
	if err := req.Validate(); err != nil {
		usage(err.Error())
	}
	cfg := runCfg{printIR: *printIR, traceOut: *traceOut, schedID: *sched, schedChoices: schedChoices}
	if err := run(req, path, cfg, obsFlags); err != nil {
		fail(err)
	}
}

// runCfg carries the plain-run flags that have no cli.Request field.
type runCfg struct {
	printIR      bool
	traceOut     string
	schedID      string
	schedChoices []int
}

func run(req *cli.Request, path string, cfg runCfg, obsFlags cli.ObsFlags) error {
	rec := obsFlags.NewRecorder()
	root := rec.StartSpan("pmvm")
	root.SetAttr("program", path)
	finish := func() error {
		root.End()
		return obsFlags.Finish(rec, os.Stdout)
	}

	switch {
	case req.Mode == cli.ModeCrash:
		resp, err := cli.Run(req, root)
		if err != nil {
			return err
		}
		var failed int
		if req.Threads {
			// Threads mode sweeps every explored interleaving; the
			// per-schedule reports replace the single CrashReport.
			failed = printScheduleCrash(resp)
		} else {
			fmt.Print(resp.CrashReport.Summary())
			failed = len(resp.CrashReport.Failures)
		}
		if err := finish(); err != nil {
			return err
		}
		if !resp.Fixed {
			return fmt.Errorf("%d crash point(s) failed recovery", failed)
		}
		return nil
	case req.Threads && !cfg.printIR:
		// Exploration run: execute the workload under every schedule the
		// bounded search (with persistence-aware POR) reaches, and report
		// the verdict per interleaving.
		resp, err := cli.Run(req, root)
		if err != nil {
			return err
		}
		printExploration(req.Entry, resp)
		return finish()
	}

	mod, err := cli.CompileRequest(req, root)
	if err != nil {
		return err
	}
	if cfg.printIR {
		fmt.Print(ir.Print(mod))
		return nil
	}

	var tr *trace.Trace
	if cfg.traceOut != "" || obsFlags.Enabled() {
		tr = &trace.Trace{Program: mod.Name}
	}
	mach, err := interp.New(mod, interp.Options{
		Trace: tr, Stdout: os.Stdout, StepLimit: req.StepLimit,
		Schedule: cfg.schedChoices,
	})
	if err != nil {
		return err
	}
	xsp := root.Start("execute")
	xsp.SetAttr("entry", req.Entry)
	if cfg.schedID != "" {
		xsp.SetAttr("schedule", cfg.schedID)
	}
	ret, err := mach.Run(req.Entry, req.Args...)
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
	fmt.Printf("pmvm: @%s returned %d\n", req.Entry, int64(ret))
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
	return finish()
}

// printExploration renders a plain -threads run from its check-mode
// response: one verdict line per explored interleaving plus the search
// accounting.
func printExploration(entry string, resp *cli.Response) {
	ex, s := resp.Exploration, resp.Schedules
	fmt.Printf("pmvm: explored %d interleaving(s) (%d pruned by POR, %d thread(s))\n",
		s.Stats.SchedulesExplored, s.Stats.SchedulesPruned, s.Threads)
	for _, r := range ex.Runs {
		verdict := "clean"
		if r.Check != nil && !r.Check.Clean() {
			verdict = fmt.Sprintf("%d report(s)", len(r.Check.Reports))
		}
		fmt.Printf("pmvm:   %-16s @%s returned %d: %s\n", r.ID, entry, int64(r.Ret), verdict)
	}
	if s.Truncated {
		fmt.Println("pmvm: schedule budget exhausted with interleavings unexplored (raise -max-schedules)")
	}
	if bad := s.BuggySchedule; bad != "" {
		fmt.Printf("pmvm: first buggy schedule %s (replay with -sched %s)\n", bad, bad)
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
