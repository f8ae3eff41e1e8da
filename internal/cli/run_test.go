package cli_test

import (
	"slices"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/lang"
)

// TestReplayTraceRepairsLikeTracedRun: repair mode fed a pre-recorded
// trace (hippocrates -trace) must apply exactly the fixes a traced run
// applies, and revalidate clean; FixSummaryLines is the -show-fixes
// listing of those fixes.
func TestReplayTraceRepairsLikeTracedRun(t *testing.T) {
	tr, err := core.TraceModule(lang.MustCompile("publish.pmc", goldenPublish), "main")
	if err != nil {
		t.Fatal(err)
	}
	run := func(q *cli.Request) *cli.Response {
		t.Helper()
		resp, err := cli.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Fixed {
			t.Fatalf("repair (replayed trace: %v) did not fix the program", q.ReplayTrace != nil)
		}
		return resp
	}
	traced := run(&cli.Request{Program: "publish.pmc", Source: goldenPublish, Mode: cli.ModeRepair})
	replayed := run(&cli.Request{Program: "publish.pmc", Source: goldenPublish, Mode: cli.ModeRepair, ReplayTrace: tr})
	want, got := traced.FixSummaryLines(), replayed.FixSummaryLines()
	if len(want) != 1 || !strings.HasPrefix(want[0], "  [1] ") {
		t.Errorf("traced -show-fixes listing = %q, want one numbered fix", want)
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed-trace fixes %q differ from the traced run's %q", got, want)
	}
}

// TestThreadsCheckAndCrashModes covers the interleaving-aware check and
// crash modes (pmcheck -threads, pmvm -crash -threads) on the
// concurrent publish program: check reports the union of bugs across
// the explored schedules without repairing, and crash mode sweeps every
// explored interleaving, at least one of which loses the payload.
func TestThreadsCheckAndCrashModes(t *testing.T) {
	check, err := cli.Run(&cli.Request{
		Program: "mtpublish.pmc", Source: goldenMT, Mode: cli.ModeCheck,
		Threads: true, MaxSchedules: 16,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if check.Fixed || check.BugsBefore == 0 || len(check.Reports) != check.BugsBefore {
		t.Errorf("threaded check: fixed=%v, %d bug(s), %d report line(s); want unfixed with every bug listed",
			check.Fixed, check.BugsBefore, len(check.Reports))
	}

	crash, err := cli.Run(&cli.Request{
		Program: "mtpublish.pmc", Source: goldenMT, Mode: cli.ModeCrash,
		Threads: true, MaxSchedules: 16, CrashPoints: 16, CrashImages: 4, CrashWorkers: 1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if crash.Fixed {
		t.Error("threaded crash sweep passed a program that loses its published payload")
	}
	if got, want := len(crash.CrashBySchedule), crash.Exploration.Explored; got != want || got == 0 {
		t.Errorf("threaded crash sweep covered %d schedule(s), want one per explored interleaving (%d)", got, want)
	}
}
