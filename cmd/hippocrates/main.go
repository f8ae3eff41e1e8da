// Command hippocrates is the automated PM durability-bug fixer (the
// paper's tool, Fig. 2): it traces a program through the bug finder,
// computes safe fixes — intraprocedural flush/fence insertion and
// persistent subprogram transformations placed by the hoisting heuristic —
// applies them, and re-validates the repaired program.
//
// Usage:
//
//	hippocrates [flags] program.pmc
//
// Flags:
//
//	-entry NAME       entry function (default "main")
//	-o FILE           write the repaired module (textual IR) to FILE
//	-trace FILE       use an existing trace instead of running the program
//	-static           static persistency analysis as the bug source: the
//	                  program is never executed (repairs are planned on
//	                  whole-program alias facts and revalidated statically)
//	-marks MODE       heuristic pointer marks: full-aa | trace-aa
//	-intra-only       disable hoisting (intraprocedural fixes only)
//	-show-fixes       print each applied fix
//	-show-scores      print the heuristic's candidate scores
//	-diff             print a line diff of the repaired IR
//	-flush KIND       inserted flush flavour: clwb (default) | clflushopt | clflush
//	-crashcheck       after repair, crash-inject the repaired module at PM
//	                  event boundaries and require its recovery entries to
//	                  accept every feasible post-crash image
//	-optimize         after a successful repair, delete/coalesce/sink
//	                  provably-redundant flushes and fences; every edit is
//	                  proven harmless by run/report identity and (with
//	                  recovery entries) crashsim verdict identity
//	-invariant NAME   structural recovery entry for -crashcheck
//	                  (default invariant_check; "-" disables)
//	-recovery NAME    durability-promise recovery entry for -crashcheck
//	                  (default crash_check; "-" disables)
//	-threads          interleaving-aware repair: explore the workload's
//	                  thread schedules (bounded, with persistence-aware
//	                  partial-order reduction), repair the union of every
//	                  schedule's reports, and require the repaired module
//	                  to be clean under re-exploration; with -crashcheck
//	                  every explored interleaving is crash-swept
//	-max-schedules N  schedule budget for -threads (0 = default)
//	-steplimit N      instruction budget per interpreter run (default 100M)
//	-metrics FILE     write counters/histograms/phase timings as JSON
//	-spans FILE       write the span tree as Chrome trace_event JSON
//	-audit            print the repair audit trail
//
// Every run ends with a one-line phase-timing summary; telemetry is
// always recorded here (the cost is a handful of phase-level spans) and
// the flags only select what gets exported.
//
// The pipeline itself lives behind cli.Run — the same entrypoint
// hippocratesd serves over HTTP, so the command and the daemon cannot
// drift.
//
// The flags fill one cli.Request, and its Validate decides which
// combinations are valid: a rejected combination is a usage error naming
// the request field (e.g. "max_schedules only applies with threads").
//
// Exit status is 1 on failure to repair and 2 on a usage error.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"hippocrates/internal/cli"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
)

func main() {
	entry := flag.String("entry", "main", "entry function")
	out := flag.String("o", "", "write the repaired module to this file")
	tracePath := flag.String("trace", "", "use an existing trace instead of running")
	staticMode := flag.Bool("static", false, "static persistency analysis as the bug source (no execution)")
	marks := flag.String("marks", "full-aa", "pointer marks: full-aa | trace-aa")
	intraOnly := flag.Bool("intra-only", false, "disable hoisting (intraprocedural fixes only)")
	showFixes := flag.Bool("show-fixes", false, "print each applied fix")
	showScores := flag.Bool("show-scores", false, "print heuristic candidate scores")
	showDiff := flag.Bool("diff", false, "print a line diff of the repaired IR")
	flushKind := flag.String("flush", "clwb", "inserted flush flavour: clwb | clflushopt | clflush")
	crashCheck := flag.Bool("crashcheck", false, "crash-schedule validation of the repaired module")
	invariant := flag.String("invariant", "", "structural recovery entry for -crashcheck and -optimize (default invariant_check)")
	recovery := flag.String("recovery", "", "durability-promise recovery entry for -crashcheck and -optimize (default crash_check)")
	optimizeFlag := flag.Bool("optimize", false, "prove-and-apply redundant flush/fence elimination after repair")
	threads := flag.Bool("threads", false, "interleaving-aware repair across explored thread schedules")
	maxSchedules := flag.Int("max-schedules", 0, "schedule budget for -threads (0 = default)")
	var limits cli.LimitFlags
	limits.Register()
	var obsFlags cli.ObsFlags
	obsFlags.Register()
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: hippocrates [flags] program.pmc")
		flag.PrintDefaults()
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "hippocrates:", err)
		os.Exit(1)
	}
	path := flag.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		fail(err)
	}
	req := &cli.Request{
		Program:      filepath.Base(path),
		Source:       string(src),
		Mode:         cli.ModeRepair,
		Entry:        *entry,
		Static:       *staticMode,
		Marks:        *marks,
		IntraOnly:    *intraOnly,
		Flush:        *flushKind,
		CrashCheck:   *crashCheck,
		Invariant:    *invariant,
		Recovery:     *recovery,
		Optimize:     *optimizeFlag,
		Threads:      *threads,
		MaxSchedules: *maxSchedules,
		StepLimit:    limits.StepLimit,
	}
	if *tracePath != "" {
		if req.ReplayTrace, err = cli.LoadTrace(*tracePath); err != nil {
			fail(err)
		}
	}
	if err := req.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hippocrates:", err)
		os.Exit(2)
	}
	if *showScores {
		req.DebugScores = os.Stderr
	}
	if *crashCheck {
		req.CrashLog = os.Stdout
	}
	if err := run(req, *out, *showFixes, *showDiff, obsFlags); err != nil {
		fail(err)
	}
}

func run(req *cli.Request, out string, showFixes, showDiff bool, obsFlags cli.ObsFlags) error {
	// The recorder is always on: the default end-of-run summary needs the
	// phase timings, and a CLI run only creates phase-level spans.
	rec := obs.New()
	if obsFlags.MetricsPath != "" {
		rec.SetTrackAllocs(true)
	}
	root := rec.StartSpan("pipeline")
	mod, err := cli.CompileRequest(req, root)
	if err != nil {
		return err
	}
	var before string
	if showDiff {
		before = ir.Print(mod)
	}

	resp, err := cli.RunModule(req, mod, root)
	if err != nil {
		return err
	}

	fmt.Printf("hippocrates: %d bug(s) before repair (%d unique store sites)\n",
		resp.BugsBefore, resp.SitesBefore)
	if s := resp.Schedules; s != nil {
		fmt.Printf("hippocrates: explored %d interleaving(s) (%d pruned by POR, %d thread(s))\n",
			s.Stats.SchedulesExplored, s.Stats.SchedulesPruned, s.Threads)
		if s.BuggySchedule != "" {
			fmt.Printf("hippocrates: first buggy schedule %s (replay with pmvm -sched)\n", s.BuggySchedule)
		}
	}
	if fix := resp.Fix; fix != nil {
		fmt.Printf("hippocrates: applied %d fix(es): %d interprocedural, %d insertion(s) elided by reduction, %d persistent subprogram(s)\n",
			len(fix.Fixes), fix.InterprocFixes(), fix.ReducedFixes, fix.ClonesCreated)
		fmt.Printf("hippocrates: module grew %d -> %d instructions (+%.3f%%) using %s marks\n",
			fix.InstrsBefore, fix.InstrsAfter,
			100*float64(fix.InstrsAfter-fix.InstrsBefore)/float64(fix.InstrsBefore),
			fix.MarksName)
		if showFixes {
			for _, line := range resp.FixSummaryLines() {
				fmt.Println(line)
			}
		}
	}
	if showDiff && resp.Fix != nil {
		fmt.Println("hippocrates: repair diff:")
		fmt.Print(cli.DiffLines(before, ir.Print(mod)))
	}
	for _, sc := range resp.CrashBySchedule {
		status := "PASS"
		if !sc.Report.Passed {
			status = fmt.Sprintf("%d point(s) failing", len(sc.Report.Failures))
		}
		fmt.Printf("hippocrates: crashcheck under schedule %s: %s (%d crash point(s), %d image(s))\n",
			sc.Schedule, status, sc.Report.Points, sc.Report.Schedules)
	}
	if resp.Pipeline != nil {
		for i, round := range resp.Pipeline.CrashRounds {
			status := "PASS"
			if !round.Passed() {
				status = fmt.Sprintf("%d point(s) still failing", len(round.Failures))
			}
			fmt.Printf("hippocrates: crashcheck after fix %d/%d: %s (%d schedule(s), %d deduped)\n",
				i+1, len(resp.Pipeline.CrashRounds)+1, status, round.Schedules, round.DedupedSchedules)
		}
		if resp.Pipeline.Crash != nil {
			fmt.Print(resp.Pipeline.Crash.Summary())
		}
	}
	repairErr := error(nil)
	if resp.Fixed {
		fmt.Println("hippocrates: repaired module is clean under the bug finder")
		if resp.Optimize != nil {
			fmt.Print(resp.Optimize.Summary())
			if showFixes {
				for _, e := range resp.Optimize.Edits {
					fmt.Printf("  %s\n", e)
				}
			}
		}
	} else {
		switch {
		case resp.Pipeline != nil && !resp.Pipeline.After.Clean():
			fmt.Print(resp.Pipeline.After.Summary())
		case resp.MT != nil && !resp.MT.After.Clean():
			fmt.Print(resp.MT.After.Summary())
		case resp.StaticResult != nil && !resp.StaticResult.After.Clean():
			fmt.Print(resp.StaticResult.After.Summary())
		}
		repairErr = fmt.Errorf("repair incomplete")
	}
	if out != "" && repairErr == nil {
		if err := cli.WriteModule(mod, out); err != nil {
			return err
		}
		fmt.Printf("hippocrates: wrote repaired module to %s\n", out)
	}

	root.End()
	fmt.Printf("hippocrates: summary: %s | %d fix(es)\n", cli.PhaseSummary(rec), len(resp.Fixes))
	if err := obsFlags.Finish(rec, os.Stdout); err != nil {
		return err
	}
	return repairErr
}
