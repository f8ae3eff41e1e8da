package cli_test

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/lang"
)

// TestReplayTraceRepairsLikeTracedRun: repair mode fed a pre-recorded
// trace (hippocrates -trace, core.RepairTrace) must apply exactly the
// fixes a traced run (core.RunAndRepair) applies, and revalidate clean;
// FixSummaryLines is the -show-fixes listing of those fixes. Across every
// buggy corpus target, the two paths must agree on the fixes, the After
// verdict and the printed repaired IR.
func TestReplayTraceRepairsLikeTracedRun(t *testing.T) {
	out, err := core.TraceAndCheck(nil, lang.MustCompile("publish.pmc", goldenPublish), "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := out.Trace
	run := func(q *cli.Request) *cli.Response {
		t.Helper()
		resp, err := cli.Run(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	traced := run(&cli.Request{Program: "publish.pmc", Source: goldenPublish, Mode: cli.ModeRepair})
	replayed := run(&cli.Request{Program: "publish.pmc", Source: goldenPublish, Mode: cli.ModeRepair, ReplayTrace: tr})
	if !traced.Fixed || !replayed.Fixed {
		t.Fatalf("repair did not fix the program (traced: %v, replayed trace: %v)", traced.Fixed, replayed.Fixed)
	}
	want, got := traced.FixSummaryLines(), replayed.FixSummaryLines()
	if len(want) != 1 || !strings.HasPrefix(want[0], "  [1] ") {
		t.Errorf("traced -show-fixes listing = %q, want one numbered fix", want)
	}
	if !slices.Equal(got, want) {
		t.Errorf("replayed-trace fixes %q differ from the traced run's %q", got, want)
	}

	targets := 0
	for _, p := range corpus.All() {
		if len(p.Bugs) == 0 {
			continue
		}
		targets++
		out, err := core.TraceAndCheck(nil, p.MustCompile(), p.Entry, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		tr := out.Trace
		q := cli.Request{Program: p.Name + ".pmc", Source: p.Source(), Mode: cli.ModeRepair, Entry: p.Entry}
		traced := run(&q)
		q.ReplayTrace = tr
		replayed := run(&q)
		if len(traced.Fixes) == 0 {
			t.Errorf("%s: the traced run applied no fix", p.Name)
		}
		if got, want := replayed.FixSummaryLines(), traced.FixSummaryLines(); !slices.Equal(got, want) {
			t.Errorf("%s: replayed-trace fixes %q differ from the traced run's %q", p.Name, got, want)
		}
		if got, want := replayed.Pipeline.After.Summary(), traced.Pipeline.After.Summary(); got != want || replayed.Fixed != traced.Fixed {
			t.Errorf("%s: replayed-trace After verdict (fixed %v)\n%s\ndiffers from the traced run's (fixed %v)\n%s",
				p.Name, replayed.Fixed, got, traced.Fixed, want)
		}
		if replayed.RepairedIR != traced.RepairedIR {
			t.Errorf("%s: replayed-trace repaired IR differs from the traced run's", p.Name)
		}
	}
	if targets < 15 {
		t.Errorf("compared %d buggy corpus targets, want all 15", targets)
	}
}

// TestThreadsRepairListsFixes: -show-fixes lists every fix a threaded
// repair applied, one summary line per fix.
func TestThreadsRepairListsFixes(t *testing.T) {
	resp, err := cli.Run(&cli.Request{
		Program: "mtpublish.pmc", Source: goldenMT, Mode: cli.ModeRepair,
		Threads: true, MaxSchedules: 16,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	lines := resp.FixSummaryLines()
	if len(resp.Fixes) == 0 || len(lines) != len(resp.Fixes) {
		t.Fatalf("threaded repair applied %d fix(es) but -show-fixes lists %d: %q", len(resp.Fixes), len(lines), lines)
	}
	for i, line := range lines {
		if want := fmt.Sprintf("  [%d] ", i+1); !strings.HasPrefix(line, want) {
			t.Errorf("fix line %d = %q, want prefix %q", i+1, line, want)
		}
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
