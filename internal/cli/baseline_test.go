package cli_test

import (
	"errors"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/obs"
)

// TestRunsPerRequest counts the interpreter runs a single-threaded
// request makes: the pipeline's trace runs (one "trace" span each: the
// check run, and a repair's revalidate run) plus the runs optimize makes
// for its baseline (the optimize.baseline_runs counter). Optimize takes
// the pipeline's own run of the final module as its baseline, so with
// no candidate to prove it adds no run of its own: check + optimize
// makes 1 run, not 2, and repair + optimize 2, not 3. redis-pmem is
// already clean, so its repair needs no revalidate run.
func TestRunsPerRequest(t *testing.T) {
	type want struct{ check, repair int }
	for name, w := range map[string]want{"pclht": {1, 2}, "redis-pmem": {1, 1}} {
		p := corpus.ByName(name)
		cases := []struct {
			mode     string
			optimize bool
			want     int
		}{
			{cli.ModeCheck, false, w.check},
			{cli.ModeCheck, true, w.check},
			{cli.ModeRepair, false, w.repair},
			{cli.ModeRepair, true, w.repair},
		}
		for _, tc := range cases {
			rec := obs.New()
			root := rec.StartSpan("pipeline")
			q := cli.Request{Program: p.Name + ".pmc", Source: p.Source(), Entry: p.Entry,
				Mode: tc.mode, Optimize: tc.optimize}
			resp, err := cli.Run(&q, root)
			root.End()
			if err != nil {
				t.Fatalf("%s %s optimize=%v: %v", name, tc.mode, tc.optimize, err)
			}
			runs := int(rec.Counter("optimize.baseline_runs"))
			for _, sp := range rec.Spans() {
				if sp.Name == "trace" {
					runs++
				}
			}
			if tc.optimize && resp.Optimize.Candidates != 0 {
				t.Fatalf("%s %s: optimize found %d candidates; the run count assumes none", name, tc.mode, resp.Optimize.Candidates)
			}
			if runs != tc.want {
				t.Errorf("%s %s optimize=%v: %d interpreter runs, want %d", name, tc.mode, tc.optimize, runs, tc.want)
			}
		}
	}
}

// longLoop runs well past a millisecond of interpretation.
const longLoop = `
pm int cell[8];

int main() {
	int i = 0;
	int acc = 0;
	while (i < 2000000) {
		acc = acc + i;
		i = i + 1;
	}
	cell[0] = acc;
	clwb(&cell[0]);
	sfence();
	return 0;
}
`

// TestOptimizeHonorsTimeout: a check + optimize request whose timeout
// expires mid-run fails with the same typed deadline *interp.LimitError
// as a plain check.
func TestOptimizeHonorsTimeout(t *testing.T) {
	for _, opt := range []bool{false, true} {
		q := cli.Request{Program: "long.pmc", Source: longLoop, Mode: cli.ModeCheck, Optimize: opt, TimeoutMS: 1}
		_, err := cli.Run(&q, nil)
		var le *interp.LimitError
		if !errors.As(err, &le) || le.Resource != "deadline" {
			t.Errorf("optimize=%v: err = %v, want a deadline *interp.LimitError", opt, err)
		}
	}
}
