package schedule_test

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
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
// prefixes: every branch copies its schedule prefix when it is found,
// and every run gets a fresh machine, trace, detector and stack table.
// Explore builds a prefix only when its branch runs and records every
// run after the first into one recycled machine; this oracle pins that
// the two visit the same schedules in the same order. It returns the
// printed trace of every run alongside the result.
func eagerExplore(mod *ir.Module, entry string, opts schedule.Options) (*schedule.Result, []string, error) {
	max := opts.MaxSchedules
	if max <= 0 {
		max = schedule.DefaultMaxSchedules
	}
	res := &schedule.Result{}
	var traces []string
	frontier := [][]int{nil}
	for len(frontier) > 0 && res.Explored < max {
		prefix := frontier[0]
		frontier = frontier[1:]
		run, tr, ds, err := schedule.RunOne(mod, entry, nil, prefix, opts.Interp)
		if err != nil {
			return nil, nil, err
		}
		res.Runs = append(res.Runs, run)
		traces = append(traces, tr.String())
		res.Explored++
		for i := len(prefix); i < len(ds); i++ {
			d := ds[i]
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
	return res, traces, nil
}

// benchTargets returns BenchmarkExplore's targets: the concurrent corpus
// plus generated threaded programs for seeds 0–5, several of which the
// default budget truncates.
func benchTargets() []target {
	ts := mtCorpus()
	for s := int64(0); s < 6; s++ {
		ts = append(ts, target{fmt.Sprintf("progen-threaded-%d", s),
			progen.Generate(s, progen.ThreadedConfig(s)), "main"})
	}
	return ts
}

// exploreTraces is Explore that also returns the printed trace of every
// run, captured before the next run reuses the trace's buffers.
func exploreTraces(mod *ir.Module, entry string, opts schedule.Options) (*schedule.Result, []string, error) {
	var traces []string
	res, err := schedule.ExploreObserved(mod, entry, nil, opts, func(_ *schedule.Run, tr *trace.Trace, _ []interp.Decision) {
		traces = append(traces, tr.String())
	})
	return res, traces, err
}

// TestExploreMatchesEagerOracle: the lazy frontier runs exactly the
// schedules the eager one does, in the same order, with the same
// pruning and truncation accounting and the same verdicts, with
// partial-order reduction on and off. The oracle's runs each get a fresh
// machine and intern their call stacks in a table of their own;
// Explore's recycle one machine and share one table per call, and every
// run's trace text must agree. The round-robin run's trace is the
// Result's.
func TestExploreMatchesEagerOracle(t *testing.T) {
	for _, tc := range exploreTargets() {
		for _, noPOR := range []bool{false, true} {
			opts := schedule.Options{NoPOR: noPOR}
			got, gotTraces, err := exploreTraces(tc.mod, tc.entry, opts)
			if err != nil {
				t.Fatalf("%s: Explore: %v", tc.name, err)
			}
			want, wantTraces, err := eagerExplore(tc.mod, tc.entry, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", tc.name, err)
			}
			where := fmt.Sprintf("%s (NoPOR=%v)", tc.name, noPOR)
			if got.Explored != want.Explored || len(got.Runs) != len(want.Runs) || len(gotTraces) != len(got.Runs) {
				t.Fatalf("%s: explored %d runs (%d traces), oracle %d", where, got.Explored, len(gotTraces), want.Explored)
			}
			for i := range got.Runs {
				if !reflect.DeepEqual(got.Runs[i].Choices, want.Runs[i].Choices) {
					t.Fatalf("%s: run %d is %s, oracle %s", where, i, got.Runs[i].ID, want.Runs[i].ID)
				}
				if gotTraces[i] != wantTraces[i] {
					t.Fatalf("%s: run %d (%s) traces differ from the oracle's", where, i, got.Runs[i].ID)
				}
			}
			if got.Trace.String() != wantTraces[0] {
				t.Fatalf("%s: Result.Trace is not the round-robin run's trace", where)
			}
			if got.Pruned != want.Pruned || got.Truncated != want.Truncated {
				t.Errorf("%s: pruned/truncated %d/%v, oracle %d/%v", where,
					got.Pruned, got.Truncated, want.Pruned, want.Truncated)
			}
			if g, w := schedule.VerdictSet(got), schedule.VerdictSet(want); !reflect.DeepEqual(g, w) {
				t.Errorf("%s: verdict sets differ\n got %v\nwant %v", where, g, w)
			}
		}
	}
}

// TestFrontierKeepsOnlyRunnableBranches: Explore queues a branch only
// while the budget can still run it, and still runs the schedules the
// unbounded frontier of the eager oracle runs, with the same pruning and
// truncation accounting, under tight and default budgets. After every
// run's branching the frontier holds no more branches than the runs the
// budget has left.
func TestFrontierKeepsOnlyRunnableBranches(t *testing.T) {
	ts := mtCorpus()
	for s := int64(0); s < 20; s++ {
		ts = append(ts, target{fmt.Sprintf("progen-threaded-%d", s),
			progen.Generate(s, progen.ThreadedConfig(s)), "main"})
	}
	truncated, complete := 0, 0
	for _, tc := range ts {
		for _, max := range []int{1, 2, 8, 64} {
			opts := schedule.Options{MaxSchedules: max}
			where := fmt.Sprintf("%s (MaxSchedules=%d)", tc.name, max)
			got, err := schedule.ExploreQueued(tc.mod, tc.entry, nil, opts, func(frontier, left int) {
				if frontier > left {
					t.Fatalf("%s: the frontier holds %d branches with %d runs left", where, frontier, left)
				}
			})
			if err != nil {
				t.Fatalf("%s: Explore: %v", where, err)
			}
			want, _, err := eagerExplore(tc.mod, tc.entry, opts)
			if err != nil {
				t.Fatalf("%s: oracle: %v", where, err)
			}
			if len(got.Runs) != len(want.Runs) {
				t.Fatalf("%s: explored %d runs, oracle %d", where, len(got.Runs), len(want.Runs))
			}
			for i := range got.Runs {
				if !reflect.DeepEqual(got.Runs[i].Choices, want.Runs[i].Choices) {
					t.Fatalf("%s: run %d is %s, oracle %s", where, i, got.Runs[i].ID, want.Runs[i].ID)
				}
			}
			if got.Pruned != want.Pruned || got.Truncated != want.Truncated {
				t.Fatalf("%s: pruned/truncated %d/%v, oracle %d/%v", where,
					got.Pruned, got.Truncated, want.Pruned, want.Truncated)
			}
			if got.Truncated {
				truncated++
			} else {
				complete++
			}
		}
	}
	if truncated == 0 || complete == 0 {
		t.Fatalf("%d truncated and %d complete explorations, want both", truncated, complete)
	}
}

// TestRecycledRunsKeepTheirVerdicts: after a whole exploration, during
// which every run after the first recorded into buffers the run before
// it finished with, every run still reports exactly what a fresh replay
// of its choices reports: return value, error, thread count and the
// whole detector result (report events, stacks, checkpoints, flush
// sites, redundant flushes and fences, counters).
func TestRecycledRunsKeepTheirVerdicts(t *testing.T) {
	compared, reports := 0, 0
	for _, tc := range exploreTargets() {
		res, err := schedule.Explore(tc.mod, tc.entry, nil, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: Explore: %v", tc.name, err)
		}
		for _, r := range res.Runs {
			fresh, _, _, err := schedule.RunOne(tc.mod, tc.entry, nil, r.Choices, interp.Options{})
			if err != nil {
				t.Fatalf("%s %s: replay: %v", tc.name, r.ID, err)
			}
			where := tc.name + " " + r.ID
			if fresh.ID != r.ID || fresh.Ret != r.Ret || fresh.Threads != r.Threads || fmt.Sprint(fresh.Err) != fmt.Sprint(r.Err) {
				t.Fatalf("%s: replay %s ret %d threads %d err %v, explored ret %d threads %d err %v", where,
					fresh.ID, fresh.Ret, fresh.Threads, fresh.Err, r.Ret, r.Threads, r.Err)
			}
			if !reflect.DeepEqual(r.Check, fresh.Check) {
				t.Fatalf("%s: explored verdict differs from a fresh replay's\n--- explored\n%s--- replay\n%s",
					where, r.Check.Summary(), fresh.Check.Summary())
			}
			compared++
			if r.Check != nil {
				reports += len(r.Check.Reports)
			}
		}
	}
	if compared < 500 || reports == 0 {
		t.Fatalf("compared %d runs with %d reports, want a sweep that reaches reports", compared, reports)
	}
	t.Logf("%d explored runs, %d reports", compared, reports)
}

// TestConcurrentExploresShareNoTable: concurrent explorations of one
// module each intern their stacks in a table of their own, enter their
// verdicts into a verdict table of their own and record their runs into
// buffers of their own, and each reports what a lone exploration does.
// The concurrent calls run first, on a fresh module, so under -race two
// calls inserting into one shared table, or recording into one recycled
// machine, would be reported as a data race; and no event record is seen
// by two of them.
func TestConcurrentExploresShareNoTable(t *testing.T) {
	for _, tc := range mtCorpus() {
		const workers = 4
		got := make([]*schedule.Result, workers)
		traces := make([][]string, workers)
		events := make([]map[*trace.Event]bool, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				events[w] = map[*trace.Event]bool{}
				got[w], errs[w] = schedule.ExploreObserved(tc.mod, tc.entry, nil, schedule.Options{},
					func(_ *schedule.Run, tr *trace.Trace, _ []interp.Decision) {
						traces[w] = append(traces[w], tr.String())
						for _, e := range tr.Events {
							events[w][e] = true
						}
					})
			}(w)
		}
		wg.Wait()
		want, wantTraces, err := exploreTraces(tc.mod, tc.entry, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: Explore: %v", tc.name, err)
		}
		for w, res := range got {
			if errs[w] != nil {
				t.Fatalf("%s: worker %d: %v", tc.name, w, errs[w])
			}
			if len(res.Runs) != len(want.Runs) || res.Pruned != want.Pruned || res.Truncated != want.Truncated {
				t.Fatalf("%s: worker %d explored %d/%d/%v, alone %d/%d/%v", tc.name, w,
					len(res.Runs), res.Pruned, res.Truncated, len(want.Runs), want.Pruned, want.Truncated)
			}
			for i, r := range res.Runs {
				if r.ID != want.Runs[i].ID || traces[w][i] != wantTraces[i] {
					t.Fatalf("%s: worker %d run %d (%s) differs from the lone exploration's", tc.name, w, i, r.ID)
				}
			}
			if g, w2 := schedule.VerdictSet(res), schedule.VerdictSet(want); !reflect.DeepEqual(g, w2) {
				t.Errorf("%s: worker %d verdict set %v, alone %v", tc.name, w, g, w2)
			}
			for v := w + 1; v < workers; v++ {
				for e := range events[w] {
					if events[v][e] {
						t.Fatalf("%s: workers %d and %d recorded into one event record", tc.name, w, v)
					}
				}
			}
		}
	}
}

// TestExploredVerdictsShareRecords: within one exploration, runs whose
// verdicts hold content-identical records hold one record: one event,
// one report, one whole result, which no later run changes. Two
// explorations of one module share none of them.
func TestExploredVerdictsShareRecords(t *testing.T) {
	shared := 0
	for _, tc := range exploreTargets() {
		var recs [2]*verdictRecords
		for i := range recs {
			res, err := schedule.Explore(tc.mod, tc.entry, nil, schedule.Options{})
			if err != nil {
				t.Fatalf("%s: Explore: %v", tc.name, err)
			}
			recs[i] = &verdictRecords{content: map[any]string{}, record: map[string]any{}}
			for _, r := range res.Runs {
				if r.Check != nil {
					shared += recs[i].add(t, tc.name+" "+r.ID, r.Check)
				}
			}
		}
		for p, c := range recs[0].content {
			if _, ok := recs[1].content[p]; ok {
				t.Fatalf("%s: two explorations share the record %s", tc.name, c)
			}
		}
	}
	if shared == 0 {
		t.Fatal("no run shared a record with an earlier run")
	}
	t.Logf("%d records shared with an earlier run", shared)
}

// verdictRecords maps every record the verdicts of one exploration name,
// an event, report or result, to its content, and back.
type verdictRecords struct {
	content map[any]string
	record  map[string]any
}

// add enters the records of res, failing when one's content changed or
// equals another record's, and returns how many were entered before.
func (v *verdictRecords) add(t *testing.T, where string, res *pmcheck.Result) int {
	t.Helper()
	seen := 0
	see := func(p any, content string) string {
		if c, ok := v.content[p]; ok {
			if c != content {
				t.Fatalf("%s: a shared record changed: %s, was %s", where, content, c)
			}
			seen++
		} else if q, ok := v.record[content]; ok {
			t.Fatalf("%s: %s is two records (%p, %p)", where, content, p, q)
		}
		v.content[p], v.record[content] = content, p
		return content
	}
	event := func(e *trace.Event) string { return see(e, fmt.Sprintf("event %+v", *e)) }
	var all []string
	for _, r := range res.Reports {
		c := fmt.Sprintf("report %s need=%v/%v occ=%d xt=%v tid=%d/%d sites=%v", event(r.Store),
			r.NeedFlush, r.NeedFence, r.Occurrences, r.CrossThread, r.Tid, r.PubTid, r.FlushSites)
		for _, e := range r.Checkpoints {
			c += " ckpt " + event(e)
		}
		all = append(all, see(r, c))
	}
	for _, e := range res.RedundantFlushes {
		all = append(all, "redundant flush "+event(e))
	}
	for _, e := range res.RedundantFences {
		all = append(all, "redundant fence "+event(e))
	}
	see(res, fmt.Sprintf("result %d/%d/%d/%d/%d/%d/%d %q", res.Stores, res.Flushes, res.Fences,
		res.Checkpoints, res.Threads, res.CrossThreadPublishes, res.LinesTouched, all))
	return seen
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

// TestUntrackedRunsRecordSameTrace: tracking must not change a run
// (crash-validation recovery boots run untracked), so every explored
// schedule must record the same trace, return value and detector report
// with and without the online tracker, and the trace the explorer
// recorded.
func TestUntrackedRunsRecordSameTrace(t *testing.T) {
	for _, tc := range exploreTargets() {
		res, traces, err := exploreTraces(tc.mod, tc.entry, schedule.Options{})
		if err != nil {
			t.Fatalf("%s: Explore: %v", tc.name, err)
		}
		for i, r := range res.Runs {
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
			if tr2 != traces[i] {
				t.Fatalf("%s: explored trace differs from its replay", where)
			}
		}
	}
}

// TestExploredRunBytes pins the heap cost of one explored interleaving
// over BenchmarkExplore's targets, where the budget truncates: with every
// run after the first recorded into the trace events, decision log,
// thread records, frames, tracker store records and simulated memory the
// run before it finished with, and its verdict made of the records
// earlier runs of the exploration already hold, what remains is the
// choices, the id, the verdict records no earlier run held and the
// branches the budget can still run. Over the 519 runs it measures about
// 1.5 KiB per run on amd64; with every run's reports and the events they
// name its own it measured about 3.3 KiB, with a fresh memory per run as
// well about 4.7 KiB, and with a store record per store and every branch
// queued as well about 6.0 KiB. Over the concurrent corpus alone
// (135 runs) it measured about 4.1 KiB with those, 9.1 KiB with a fresh
// machine and trace per run, 14.5 KiB with a private stack copy per
// event, and 33 KiB with 4 KiB pages, an online tracker per run and
// eagerly copied prefixes.
func TestExploredRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	ts := benchTargets()
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
	if perRun > 1600 {
		t.Errorf("an explored run allocates %.0f bytes, want <= 1,600 B", perRun)
	}
}
