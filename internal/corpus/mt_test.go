package corpus

import (
	"reflect"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

// TestMTSmoke is the concurrent corpus gate (`make mt-smoke`): for every
// MT program the buggy build must fail under at least one explored
// interleaving (crash validation included), the repaired build must pass
// crash validation under every explored interleaving, and a buggy
// schedule id must replay to the same verdict.
func TestMTSmoke(t *testing.T) {
	for _, p := range MTPrograms() {
		p := p
		t.Run(p.Name, func(t *testing.T) {
			t.Parallel()
			mod := p.MustCompile()
			opts := core.Options{MaxSchedules: 16}

			ex, err := core.ExploreModule(mod, p.Entry, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range ex.Runs {
				if r.Ret != p.WantRet {
					t.Fatalf("schedule %s: ret = %d, want %d", r.ID, r.Ret, p.WantRet)
				}
			}
			bad := ex.FirstBuggy()
			if bad == nil {
				t.Fatalf("no explored interleaving exposes the bug (%d explored)", ex.Explored)
			}
			if p.MaskedByDefault {
				if ex.Runs[0].Buggy() {
					t.Fatalf("default round-robin schedule %s unexpectedly buggy; masking is the point of %s", ex.Runs[0].ID, p.Name)
				}
				if bad.ID == ex.Runs[0].ID {
					t.Fatalf("FirstBuggy returned the default schedule")
				}
			} else if !ex.Runs[0].Buggy() {
				t.Fatalf("default schedule should already expose %s", p.Name)
			}

			// The buggy build must fail crash validation under the buggy
			// interleaving: that is the harm the repair exists to remove.
			rep, err := crashsim.Validate(mod, crashsim.Options{
				Entry:     p.Entry,
				Schedule:  bad.Choices,
				MaxPoints: 12,
				MaxImages: 4,
				Workers:   1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Passed() {
				t.Fatalf("buggy %s passed crash validation under schedule %s", p.Name, bad.ID)
			}

			// Schedule ids are replayable coordinates: re-running the buggy
			// run's choices on a fresh machine must reproduce its decisions,
			// return value and verdict (report events and stacks, redundant
			// flushes and fences), which the explorer recorded on a machine
			// recycled from earlier runs.
			tr := &trace.Trace{Program: mod.Name}
			det := pmcheck.NewDetector()
			m, err := interp.New(mod, interp.Options{Trace: tr, Schedule: bad.Choices, Detector: det})
			if err != nil {
				t.Fatal(err)
			}
			ret, err := m.Run(p.Entry)
			if err != nil {
				t.Fatalf("replaying schedule %s: %v", bad.ID, err)
			}
			if got, want := interp.ScheduleID(replayChoices(m)), bad.ID; got != want {
				t.Fatalf("replay schedule id = %s, want %s", got, want)
			}
			if got := det.Result(); ret != bad.Ret || !reflect.DeepEqual(got, bad.Check) {
				t.Fatalf("replay of schedule %s diverged: ret %d, want %d\n--- replay ---\n%s--- original ---\n%s",
					bad.ID, ret, bad.Ret, got.Summary(), bad.Check.Summary())
			}

			// Repair on a fresh module, then the full acceptance bar: every
			// explored interleaving of the repaired build must survive its
			// whole crash sweep.
			fresh := p.MustCompile()
			opts.CrashCheck = &crashsim.Options{MaxPoints: 12, MaxImages: 4, Workers: 1}
			res, err := core.RunAndRepairMT(fresh, p.Entry, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Before.Clean() {
				t.Fatalf("union detector found nothing before repair")
			}
			if !res.Fixed() {
				for _, c := range res.Crash {
					if !c.Report.Passed() {
						t.Errorf("repaired %s fails crash validation under schedule %s", p.Name, c.ID)
					}
				}
				t.Fatalf("repair did not fix %s: %d reports remain", p.Name, len(res.After.Reports))
			}
			if got, want := len(res.Crash), res.FinalExploration().Explored; got != want {
				t.Fatalf("crash sweeps = %d, want one per explored schedule (%d)", got, want)
			}
		})
	}
}

// TestMTExplorationPrunes pins what the interleaving search does over
// the concurrent corpus, independent of timing: there are at least three
// MT programs, each reaches at least two threads, partial-order
// reduction prunes real work on at least one of them at 64 schedules,
// and where both the POR search (64) and the bounded-exhaustive one
// (1,024) finish, POR explored no more than exhaustive did.
func TestMTExplorationPrunes(t *testing.T) {
	if testing.Short() {
		t.Skip("bounded-exhaustive exploration")
	}
	const porCap, exhaustiveCap = 64, 1024
	progs := MTPrograms()
	if len(progs) < 3 {
		t.Fatalf("%d concurrent corpus programs, want >= 3", len(progs))
	}
	anyPruned := false
	for _, p := range progs {
		por, err := schedule.Explore(p.MustCompile(), p.Entry, nil, schedule.Options{MaxSchedules: porCap})
		if err != nil {
			t.Fatalf("%s: explore: %v", p.Name, err)
		}
		threads := 0
		for _, r := range por.Runs {
			threads = max(threads, r.Threads)
		}
		if threads < 2 {
			t.Errorf("%s: reached %d thread(s), want >= 2", p.Name, threads)
		}
		anyPruned = anyPruned || por.Pruned > 0
		ex, err := schedule.Explore(p.MustCompile(), p.Entry, nil, schedule.Options{MaxSchedules: exhaustiveCap, NoPOR: true})
		if err != nil {
			t.Fatalf("%s: exhaustive explore: %v", p.Name, err)
		}
		if !por.Truncated && !ex.Truncated && ex.Explored < por.Explored {
			t.Errorf("%s: exhaustive search explored %d < POR's %d", p.Name, ex.Explored, por.Explored)
		}
		t.Logf("%s: %d thread(s), POR %d explored / %d pruned, exhaustive %d explored (truncated %v/%v)",
			p.Name, threads, por.Explored, por.Pruned, ex.Explored, por.Truncated, ex.Truncated)
	}
	if !anyPruned {
		t.Errorf("partial-order reduction pruned nothing across the concurrent corpus at %d schedules", porCap)
	}
}

func replayChoices(m *interp.Machine) []int {
	ds := m.Decisions()
	out := make([]int, len(ds))
	for i, d := range ds {
		out[i] = d.Chosen
	}
	return out
}
