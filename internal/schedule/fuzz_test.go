package schedule_test

import (
	"fmt"
	"reflect"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/interp"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/schedule"
)

// FuzzExploreVerdicts explores a generated threaded program (a
// ThreadedConfig seed, 0–199) under a budget of 1–64 schedules. Every
// explored run's verdict, whose records the exploration's runs share,
// must equal a fresh replay of its choices, and core.UnionCheck's
// reports must read, in order, as DedupeByClass over those replays.
func FuzzExploreVerdicts(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed, budget uint8) {
		s := int64(seed) % 200
		max := 1 + int(budget)%64
		mod := progen.Generate(s, progen.ThreadedConfig(s))
		where := fmt.Sprintf("progen-threaded-%d budget %d", s, max)
		ex, err := schedule.Explore(mod, "main", nil, schedule.Options{MaxSchedules: max})
		if err != nil {
			t.Fatalf("%s: Explore: %v", where, err)
		}
		var replayed []*pmcheck.Report
		faulted := false
		for _, r := range ex.Runs {
			fresh, _, _, err := schedule.RunOne(mod, "main", nil, r.Choices, interp.Options{})
			if err != nil {
				t.Fatalf("%s %s: replay: %v", where, r.ID, err)
			}
			if fresh.ID != r.ID || fresh.Ret != r.Ret || fresh.Threads != r.Threads || fmt.Sprint(fresh.Err) != fmt.Sprint(r.Err) {
				t.Fatalf("%s: replay %s ret %d threads %d err %v, explored ret %d threads %d err %v", where,
					fresh.ID, fresh.Ret, fresh.Threads, fresh.Err, r.Ret, r.Threads, r.Err)
			}
			if !reflect.DeepEqual(r.Check, fresh.Check) {
				t.Fatalf("%s %s: explored verdict differs from a fresh replay's\n--- explored\n%s--- replay\n%s",
					where, r.ID, r.Check.Summary(), fresh.Check.Summary())
			}
			if fresh.Check == nil {
				faulted = true
				continue
			}
			replayed = append(replayed, fresh.Check.Reports...)
		}
		if faulted {
			// The pipeline never takes the union of an exploration with a
			// faulted run.
			return
		}
		got, want := core.UnionCheck(ex).Reports, pmcheck.DedupeByClass(replayed)
		if len(got) != len(want) {
			t.Fatalf("%s: union holds %d reports, the replays' %d", where, len(got), len(want))
		}
		for i := range got {
			if g, w := got[i].String(), want[i].String(); g != w {
				t.Fatalf("%s: union report %d is\n%s\nthe replays'\n%s", where, i, g, w)
			}
		}
	})
}
