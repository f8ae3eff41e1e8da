package bench

import (
	"strings"
	"testing"

	"hippocrates/internal/study"
)

func TestRunEffectiveness(t *testing.T) {
	res, err := RunEffectiveness()
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 23 {
		t.Errorf("total fixed = %d, want 23", res.Total)
	}
	for _, row := range res.Rows {
		if !row.CleanAfter || !row.WorkloadsOK {
			t.Errorf("%s: clean=%v workloads=%v", row.Target, row.CleanAfter, row.WorkloadsOK)
		}
	}
	if !strings.Contains(res.Render(), "total bugs fixed: 23") {
		t.Error("render missing total")
	}
}

func TestRunFig3(t *testing.T) {
	res, err := RunFig3()
	if err != nil {
		t.Fatal(err)
	}
	if res.Identical != 8 || res.Equivalent != 3 {
		t.Errorf("identical/equivalent = %d/%d, want 8/3", res.Identical, res.Equivalent)
	}
	if len(res.PerIssue) != 11 {
		t.Errorf("per-issue outcomes = %d, want 11", len(res.PerIssue))
	}
	out := res.Render()
	for _, issue := range []string{"447", "452", "585", "945"} {
		if !strings.Contains(out, issue) {
			t.Errorf("render missing issue %s:\n%s", issue, out)
		}
	}
}

func TestBuildRedisVariants(t *testing.T) {
	builds, err := BuildRedisVariants()
	if err != nil {
		t.Fatal(err)
	}
	if builds.FullFixes == 0 || builds.IntraFixes == 0 {
		t.Error("no fixes recorded")
	}
	if builds.FullInterproc == 0 {
		t.Error("RedisH-full applied no interprocedural fixes")
	}
	t.Logf("RedisH-full: %d fixes, %d interprocedural, depths %v; RedisH-intra: %d fixes",
		builds.FullFixes, builds.FullInterproc, builds.HoistDepths, builds.IntraFixes)
}

func TestRunFig4QuickShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	cfg := Fig4Config{Records: 200, Ops: 200, Trials: 3, Seed: 1}
	res, err := RunFig4(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7 (Load + A-F)", len(res.Rows))
	}
	t.Logf("\n%s", res.Render())
	lo, hi := res.SpeedupRange()
	if lo < 1.5 {
		t.Errorf("RedisH-full vs RedisH-intra min speedup = %.2f, want the paper's shape (>1.5x)", lo)
	}
	if hi > 25 {
		t.Errorf("max speedup = %.2f, implausibly large", hi)
	}
	// RedisH-full must be within a reasonable band of the hand-tuned
	// baseline on every workload (the paper found parity or better).
	for _, row := range res.Rows {
		full := row.Get("RedisH-full").Mean
		pm := row.Get("Redis-pm").Mean
		if full < 0.75*pm {
			t.Errorf("%s: RedisH-full %.0f is far below Redis-pm %.0f", row.Workload, full, pm)
		}
	}
}

func TestRunFig5(t *testing.T) {
	res, err := RunFig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 targets", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.KLOC <= 0 {
			t.Errorf("%s: KLOC = %v", row.Target, row.KLOC)
		}
		if row.Fixes == 0 && row.Target != "Redis-pmem" {
			t.Errorf("%s: no fixes measured", row.Target)
		}
		if row.Time <= 0 {
			t.Errorf("%s: no time measured", row.Target)
		}
	}
	t.Logf("\n%s", res.Render())
}

func TestRunSizeImpact(t *testing.T) {
	res, err := RunSizeImpact()
	if err != nil {
		t.Fatal(err)
	}
	if res.IRLinesAdded <= 0 {
		t.Error("no IR added")
	}
	if res.PctIncrease > 30 {
		t.Errorf("size increase %.1f%% is out of hand", res.PctIncrease)
	}
	t.Logf("\n%s", res.Render())
}

func TestFig1ViaStudy(t *testing.T) {
	st := study.Aggregate()
	if st.AvgCommits != 13 || st.AvgDays != 28 || st.MaxDays != 66 {
		t.Errorf("Fig. 1 aggregates = %d/%d/%d", st.AvgCommits, st.AvgDays, st.MaxDays)
	}
}

func TestFig4Chart(t *testing.T) {
	res := &Fig4Result{
		Config: QuickFig4Config(),
		Rows: []Fig4Row{
			{Workload: "Load", Series: []Series{
				{Build: "RedisH-intra", Mean: 50000},
				{Build: "Redis-pm", Mean: 125000, CI95: 300},
				{Build: "RedisH-full", Mean: 126000, CI95: 280},
			}},
		},
	}
	out := res.Chart()
	for _, want := range []string{"Load", "RedisH-full", "█", "░", "legend"} {
		if !strings.Contains(out, want) {
			t.Errorf("chart lacks %q:\n%s", want, out)
		}
	}
	empty := &Fig4Result{}
	if empty.Chart() != "no data" {
		t.Error("empty chart should say so")
	}
}
