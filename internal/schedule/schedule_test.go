package schedule

import (
	"reflect"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/trace"
)

// maskedPublish is the minimal schedule-dependent unordered-publish
// program: the worker's store to shard->val carries no flush or fence,
// but main's own clwb+sfence of the shard line masks the bug whenever
// the worker's store lands before main's flush — which is exactly what
// the default round-robin interleaving does. Only an interleaving that
// runs main's flush first leaves the worker's store pending when main
// durably publishes the shard's address.
const maskedPublish = `
struct shard {
	int stats;
	int val;
	byte pad[48];
};

struct root {
	shard s;
	byte *head;
};

void worker() {
	root *r = (root*) pm_root(sizeof(root));
	r->s.val = 42; // BUG: never flushed or fenced by its own thread
}

int main() {
	root *r = (root*) pm_root(sizeof(root));
	int t = spawn(worker);
	r->s.stats = r->s.stats + 1;
	clwb((byte*) &r->s.stats);
	sfence();
	join(t);
	r->head = (byte*) &r->s;
	clwb((byte*) &r->head);
	sfence();
	pm_checkpoint();
	return r->s.val;
}
`

// disjointWriters has two workers persisting correctly to different
// cache lines: every interleaving is clean and every pair of their
// line-addressed operations commutes, so POR should collapse the tree.
const disjointWriters = `
struct cell {
	int v;
	byte pad[56];
};

struct pair {
	cell a;
	cell b;
};

void wa() {
	pair *p = (pair*) pm_root(sizeof(pair));
	p->a.v = 1;
	clwb((byte*) &p->a.v);
	sfence();
}

void wb() {
	pair *p = (pair*) pm_root(sizeof(pair));
	p->b.v = 2;
	clwb((byte*) &p->b.v);
	sfence();
}

int main() {
	pair *p = (pair*) pm_root(sizeof(pair));
	int ta = spawn(wa);
	int tb = spawn(wb);
	join(ta);
	join(tb);
	pm_checkpoint();
	return p->a.v + p->b.v;
}
`

func compile(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod, err := lang.Compile("test.pmc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return mod
}

func TestExploreFindsScheduleDependentBug(t *testing.T) {
	mod := compile(t, maskedPublish)
	res, err := Explore(mod, "main", nil, Options{})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	rr := res.Runs[0]
	if rr.ID != "rr" && len(rr.Choices) == 0 {
		t.Fatalf("first run is not the default schedule: %q", rr.ID)
	}
	if rr.Buggy() {
		t.Fatalf("round-robin schedule should mask the bug, got reports:\n%s",
			rr.Check.Summary())
	}
	bad := res.FirstBuggy()
	if bad == nil {
		t.Fatalf("no explored schedule exposed the bug (%d explored, %d pruned)",
			res.Explored, res.Pruned)
	}
	if bad.Err != nil {
		t.Fatalf("buggy schedule %s errored instead of reporting: %v", bad.ID, bad.Err)
	}
	found := false
	for _, rep := range bad.Check.Reports {
		if rep.CrossThread {
			found = true
			if rep.Tid == rep.PubTid {
				t.Errorf("cross-thread report has same store/publish tid %d", rep.Tid)
			}
			if !rep.NeedFlush || !rep.NeedFence {
				t.Errorf("cross-thread report should need flush+fence: %+v", rep)
			}
		}
	}
	if !found {
		t.Errorf("schedule %s buggy but no cross-thread publish report:\n%s",
			bad.ID, bad.Check.Summary())
	}
}

// TestExploreReplayIsDeterministic: replaying a buggy run's full choice
// log on a fresh machine reproduces it bit-for-bit: the same decisions,
// trace bytes and verdict as the explorer recorded, although the
// explorer recorded the run into a machine recycled from earlier runs.
func TestExploreReplayIsDeterministic(t *testing.T) {
	mod := compile(t, maskedPublish)
	traces := map[*Run]string{}
	decisions := map[*Run][]interp.Decision{}
	res, err := ExploreObserved(mod, "main", nil, Options{}, func(r *Run, tr *trace.Trace, ds []interp.Decision) {
		traces[r] = tr.String()
		decisions[r] = copyDecisions(ds)
	})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	bad := res.FirstBuggy()
	if bad == nil {
		t.Fatal("need a buggy schedule to replay")
	}
	if bad == res.Runs[0] {
		t.Fatal("the buggy run is the round-robin one, which is never recycled")
	}
	s := newSession(mod, "main", nil, interp.Options{})
	again, err := s.run(bad.Choices)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if again.ID != bad.ID {
		t.Fatalf("replay drifted: %s vs %s", again.ID, bad.ID)
	}
	if got, want := s.tr.String(), traces[bad]; got != want {
		t.Fatalf("replayed trace differs:\n--- original\n%s\n--- replay\n%s", want, got)
	}
	if !reflect.DeepEqual(s.m.Decisions(), decisions[bad]) {
		t.Fatal("replayed decision log differs")
	}
	if !reflect.DeepEqual(again.Check, bad.Check) {
		t.Fatalf("replayed verdict differs:\n--- original\n%s--- replay\n%s", bad.Check.Summary(), again.Check.Summary())
	}
}

// copyDecisions deep-copies a decision log out of the machine's
// recycled buffers.
func copyDecisions(ds []interp.Decision) []interp.Decision {
	out := make([]interp.Decision, len(ds))
	for i, d := range ds {
		out[i] = interp.Decision{Runnable: append([]interp.PendingOp(nil), d.Runnable...), Chosen: d.Chosen}
	}
	return out
}

func TestPORPreservesVerdictSet(t *testing.T) {
	for _, tc := range []struct {
		name string
		src  string
	}{
		{"masked-publish", maskedPublish},
		{"disjoint-writers", disjointWriters},
		// Every interleaving deadlocks: faulting runs compare by the first
		// line of their error.
		{"join-cycle", `
int worker() {
	join(1);
	return 0;
}
int main() {
	int t = spawn(worker);
	join(t);
	return 0;
}
`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mod := compile(t, tc.src)
			full, err := Explore(mod, "main", nil, Options{MaxSchedules: 4096, NoPOR: true})
			if err != nil {
				t.Fatalf("exhaustive: %v", err)
			}
			if full.Truncated {
				t.Fatalf("exhaustive exploration truncated at %d schedules", full.Explored)
			}
			por, err := Explore(mod, "main", nil, Options{MaxSchedules: 4096})
			if err != nil {
				t.Fatalf("por: %v", err)
			}
			if por.Truncated {
				t.Fatalf("POR exploration truncated at %d schedules", por.Explored)
			}
			if por.Explored > full.Explored {
				t.Errorf("POR explored more than exhaustive: %d > %d", por.Explored, full.Explored)
			}
			if got, want := VerdictSet(por), VerdictSet(full); !reflect.DeepEqual(got, want) {
				t.Errorf("verdict sets diverge\nPOR:        %v\nexhaustive: %v", got, want)
			}
		})
	}
}

func TestPORPrunesDisjointWriters(t *testing.T) {
	mod := compile(t, disjointWriters)
	res, err := Explore(mod, "main", nil, Options{MaxSchedules: 4096})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Pruned == 0 {
		t.Errorf("expected POR to prune commuting disjoint-line alternatives (explored %d)",
			res.Explored)
	}
	if !res.AllClean() {
		t.Errorf("disjoint writers should be clean under every interleaving")
	}
}

func TestMaxSchedulesTruncates(t *testing.T) {
	mod := compile(t, maskedPublish)
	res, err := Explore(mod, "main", nil, Options{MaxSchedules: 1, NoPOR: true})
	if err != nil {
		t.Fatalf("Explore: %v", err)
	}
	if res.Explored != 1 {
		t.Fatalf("explored %d, want 1", res.Explored)
	}
	if !res.Truncated {
		t.Error("bound of 1 should leave a truncated frontier")
	}
}
