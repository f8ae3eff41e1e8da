package schedule_test

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

type target struct {
	name  string
	mod   *ir.Module
	entry string
}

// mtCorpus returns the concurrent corpus programs.
func mtCorpus() []target {
	var ts []target
	for _, p := range corpus.MTPrograms() {
		ts = append(ts, target{p.Name, p.MustCompile(), p.Entry})
	}
	return ts
}

// exploreTargets returns the concurrent corpus plus generated threaded
// programs for seeds 0–49.
func exploreTargets() []target {
	ts := mtCorpus()
	for s := int64(0); s < 50; s++ {
		ts = append(ts, target{fmt.Sprintf("progen-threaded-%d", s),
			progen.Generate(s, progen.ThreadedConfig(s)), "main"})
	}
	return ts
}

// eagerExplore is the breadth-first search with eagerly copied frontier
// prefixes: every branch copies its schedule prefix when it is found.
// Explore builds a prefix only when its branch runs; this oracle pins
// that the two visit the same schedules in the same order.
func eagerExplore(mod *ir.Module, entry string, opts schedule.Options) (*schedule.Result, error) {
	max := opts.MaxSchedules
	if max <= 0 {
		max = schedule.DefaultMaxSchedules
	}
	res := &schedule.Result{}
	frontier := [][]int{nil}
	for len(frontier) > 0 && res.Explored < max {
		prefix := frontier[0]
		frontier = frontier[1:]
		run, err := schedule.RunOne(mod, entry, nil, prefix, &opts.Interp)
		if err != nil {
			return nil, err
		}
		res.Runs = append(res.Runs, run)
		res.Explored++
		for i := len(prefix); i < len(run.Decisions); i++ {
			d := run.Decisions[i]
			for alt := range d.Runnable {
				if alt == d.Chosen {
					continue
				}
				if !opts.NoPOR && schedule.Commutes(d.Runnable[alt], d.Runnable[d.Chosen]) {
					res.Pruned++
					continue
				}
				np := make([]int, i+1)
				copy(np, run.Choices[:i])
				np[i] = alt
				frontier = append(frontier, np)
			}
		}
	}
	res.Truncated = len(frontier) > 0
	return res, nil
}

// TestExploreMatchesEagerOracle: the lazy frontier runs exactly the
// schedules the eager one does, in the same order, with the same
// pruning and truncation accounting and the same verdicts, with
// partial-order reduction on and off.
func TestExploreMatchesEagerOracle(t *testing.T) {
	for _, tc := range exploreTargets() {
		for _, noPOR := range []bool{false, true} {
			opts := schedule.Options{NoPOR: noPOR}
			got, err := schedule.Explore(tc.mod, tc.entry, nil, opts)
			if err != nil {
				t.Fatalf("%s: Explore: %v", tc.name, err)
			}
			want, err := eagerExplore(tc.mod, tc.entry, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tc.name, err)
			}
			where := fmt.Sprintf("%s (NoPOR=%v)", tc.name, noPOR)
			if got.Explored != want.Explored || len(got.Runs) != len(want.Runs) {
				t.Fatalf("%s: explored %d runs, oracle %d", where, got.Explored, want.Explored)
			}
			for i := range got.Runs {
				if !reflect.DeepEqual(got.Runs[i].Choices, want.Runs[i].Choices) {
					t.Fatalf("%s: run %d is %s, oracle %s", where, i, got.Runs[i].ID, want.Runs[i].ID)
				}
			}
			if got.Pruned != want.Pruned || got.Truncated != want.Truncated {
				t.Errorf("%s: pruned/truncated %d/%v, oracle %d/%v", where,
					got.Pruned, got.Truncated, want.Pruned, want.Truncated)
			}
			if g, w := got.VerdictSet(), want.VerdictSet(); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: verdict sets differ\n got %v\nwant %v", where, g, w)
			}
		}
	}
}

// runTraced runs one schedule with the online tracker on or off and
// returns the run's printed trace and detector digest.
func runTraced(t *testing.T, tc target, choices []int, noTrack bool) (ret uint64, errText, traceText, check string) {
	t.Helper()
	tr := &trace.Trace{Program: tc.mod.Name}
	m, err := interp.New(tc.mod, interp.Options{Trace: tr, Schedule: choices, NoTrack: noTrack})
	if err != nil {
		t.Fatal(err)
	}
	ret, err = m.Run(tc.entry)
	if err != nil {
		errText = err.Error()
	}
	return ret, errText, tr.String(), pmcheck.Check(tr).Summary()
}

// TestUntrackedRunsRecordSameTrace: an explored run is untracked, so
// every explored schedule must record the same trace, return value and
// detector report with and without the online tracker.
func TestUntrackedRunsRecordSameTrace(t *testing.T) {
	for _, tc := range exploreTargets() {
		res, err := schedule.Explore(tc.mod, tc.entry, nil, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: Explore: %v", tc.name, err)
		}
		for _, r := range res.Runs {
			ret1, err1, tr1, ck1 := runTraced(t, tc, r.Choices, false)
			ret2, err2, tr2, ck2 := runTraced(t, tc, r.Choices, true)
			where := tc.name + " " + r.ID
			if ret1 != ret2 || err1 != err2 {
				t.Fatalf("%s: tracked run returned %d/%q, untracked %d/%q", where, ret1, err1, ret2, err2)
			}
			if tr1 != tr2 {
				t.Fatalf("%s: traces differ\n--- tracked\n%s\n--- untracked\n%s", where, tr1, tr2)
			}
			if ck1 != ck2 {
				t.Fatalf("%s: detector reports differ\n--- tracked\n%s\n--- untracked\n%s", where, ck1, ck2)
			}
			if tr2 != r.Trace.String() {
				t.Fatalf("%s: explored trace differs from its replay", where)
			}
		}
	}
}

// TestExploredRunBytes pins the heap cost of one explored interleaving
// over the concurrent corpus: machine, trace, decision log and the
// detector's replay, with no online tracker, 256-byte memory pages and
// branch prefixes built only for the schedules that run. Over the 135
// runs it measures about 15 KiB per run on amd64; with 4 KiB pages, an
// online tracker per run and eagerly copied prefixes it measured about
// 33 KiB.
func TestExploredRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	ts := mtCorpus()
	explore := func() int {
		runs := 0
		for _, tc := range ts {
			res, err := schedule.Explore(tc.mod, tc.entry, nil, schedule.Options{})
			if err != nil {
				t.Fatalf("%s: Explore: %v", tc.name, err)
			}
			runs += res.Explored
		}
		return runs
	}
	explore() // warm up: lazily numbered functions and the like
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	runs := explore()
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	t.Logf("%d explored runs, %.0f bytes per run", runs, perRun)
	if perRun > 24<<10 {
		t.Errorf("an explored run allocates %.0f bytes, want <= 24 KiB", perRun)
	}
}
