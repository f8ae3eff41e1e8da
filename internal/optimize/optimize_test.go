package optimize

import (
	"fmt"
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
)

func mustModule(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return m
}

func countOps(mod *ir.Module, op ir.Op) int {
	n := 0
	for _, f := range mod.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == op {
					n++
				}
			}
		}
	}
	return n
}

// TestOptimizeDeletesRedundant drives the full pass on a crashsim-able
// program with a doubled flush and a doubled fence: both duplicates must
// go, the survivors must stay, and the measured simulated time must
// drop.
func TestOptimizeDeletesRedundant(t *testing.T) {
	mod := mustModule(t, `
struct cell { int magic; int val; };

int main() {
	cell *c = (cell*) pm_root(sizeof(cell));
	c->magic = 1;
	c->val = 0;
	clwb((byte*) c);
	sfence();
	pm_checkpoint();
	c->val = 7;
	clwb((byte*) &c->val);
	clwb((byte*) &c->val);
	sfence();
	sfence();
	pm_checkpoint();
	return c->val;
}

int invariant_check() {
	cell *c = (cell*) pm_root(sizeof(cell));
	if (c->magic == 0) { return 0; }
	if (c->val != 0 && c->val != 7) { return 1; }
	return 0;
}

int crash_check(int completed) {
	cell *c = (cell*) pm_root(sizeof(cell));
	if (c->magic == 0) { return 0; }
	if (completed == 1 && c->val != 0) { return 1; }
	if (completed >= 2 && c->val != 7) { return 2; }
	return 0;
}
`)
	flushes, fences := countOps(mod, ir.OpFlush), countOps(mod, ir.OpFence)
	res, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Deleted != 2 || res.Merged != 0 {
		t.Errorf("deleted = %d, merged = %d, want 2 deletions (flush and fence)\n%s",
			res.Deleted, res.Merged, res.Summary())
	}
	if res.Rejected != 0 {
		for _, e := range res.Edits {
			t.Logf("edit: %s", e)
		}
		t.Errorf("rejected = %d, want 0", res.Rejected)
	}
	if !res.CrashsimProven || res.CrashPoints == 0 {
		t.Errorf("CrashsimProven = %v, CrashPoints = %d; module declares recovery entries",
			res.CrashsimProven, res.CrashPoints)
	}
	if got := countOps(mod, ir.OpFlush); got != flushes-1 {
		t.Errorf("flushes: %d -> %d, want %d", flushes, got, flushes-1)
	}
	if got := countOps(mod, ir.OpFence); got != fences-1 {
		t.Errorf("fences: %d -> %d, want %d", fences, got, fences-1)
	}
	if res.SimNsAfter >= res.SimNsBefore {
		t.Errorf("sim time %v -> %v, want a reduction", res.SimNsBefore, res.SimNsAfter)
	}

	// The pass must be idempotent: nothing left to find.
	res2, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("second Optimize: %v", err)
	}
	if res2.Applied() != 0 {
		t.Errorf("second pass applied %d edit(s), want 0\n%s", res2.Applied(), res2.Summary())
	}
}

// TestOptimizeCoalescesSameLine checks the coalesce shape on a program
// without recovery entries (the run/report-identity-only proof tier):
// two flushes of one cache line with no fence between collapse into the
// later one.
func TestOptimizeCoalescesSameLine(t *testing.T) {
	mod := mustModule(t, `
struct rec { int a; int b; };

int main() {
	rec *r = (rec*) pm_root(sizeof(rec));
	r->a = 1;
	clwb((byte*) &r->a);
	r->b = 2;
	clwb((byte*) &r->b);
	sfence();
	pm_checkpoint();
	return r->a + r->b;
}
`)
	res, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Merged != 1 {
		for _, e := range res.Edits {
			t.Logf("edit: %s", e)
		}
		t.Fatalf("merged = %d, want 1\n%s", res.Merged, res.Summary())
	}
	if res.CrashsimProven {
		t.Errorf("CrashsimProven = true for a module without recovery entries")
	}
	if got := countOps(mod, ir.OpFlush); got != 1 {
		t.Errorf("flushes after coalesce = %d, want 1", got)
	}
	var merged *Edit
	for _, e := range res.Edits {
		if e.Kind == EditCoalesceFlush && e.Accepted {
			merged = e
		}
	}
	if merged == nil || merged.Into == "" {
		t.Fatalf("accepted coalesce edit missing its surviving partner site: %+v", merged)
	}
}

// TestOptimizeRejectsReclassifyingFence is the do-no-harm case: the
// fence after an unflushed store drains nothing (so dynamic evidence
// nominates it), but deleting it would reclassify the store's bug from
// missing-flush to missing-flush&fence. The proof must reject the edit
// and restore the fence.
func TestOptimizeRejectsReclassifyingFence(t *testing.T) {
	mod := mustModule(t, `
struct cell { int val; };

int main() {
	cell *c = (cell*) pm_root(sizeof(cell));
	c->val = 5;
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	res, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Applied() != 0 {
		t.Errorf("applied %d edit(s), want 0\n%s", res.Applied(), res.Summary())
	}
	if res.Rejected == 0 {
		t.Fatalf("rejected = 0, want the fence deletion refused\n%s", res.Summary())
	}
	var rej *Edit
	for _, e := range res.Edits {
		if e.Kind == EditDeleteFence && !e.Accepted {
			rej = e
		}
	}
	if rej == nil {
		t.Fatalf("no rejected delete-fence edit among %d edits", len(res.Edits))
	}
	t.Logf("%srefused: %s", res.Summary(), rej)
	if !strings.Contains(rej.Reason, "report") {
		t.Errorf("rejection reason %q does not mention detector reports", rej.Reason)
	}
	if got := countOps(mod, ir.OpFence); got != 1 {
		t.Errorf("fence count after rejection = %d, want 1 (undo must restore it)", got)
	}
	if res.SimNsAfter != res.SimNsBefore {
		t.Errorf("sim time changed %v -> %v with no accepted edits", res.SimNsBefore, res.SimNsAfter)
	}
}

// TestOptimizeSinksJoinFence checks the cross-block sink shape: a
// branch arm fences before rejoining, and the join block fences again
// for the other arm. The arm's fence drains something on its own
// iterations (so dynamic evidence cannot nominate it for deletion), but
// its drain defers to the join fence.
func TestOptimizeSinksJoinFence(t *testing.T) {
	mod := mustModule(t, `
struct duo { int a; int b; };

int main() {
	duo *d = (duo*) pm_root(sizeof(duo));
	int i = 0;
	while (i < 4) {
		d->a = i;
		clwb((byte*) &d->a);
		if (i - (i / 2) * 2 == 1) {
			d->b = i;
			clwb((byte*) &d->b);
			sfence();
		}
		sfence();
		pm_checkpoint();
		i = i + 1;
	}
	return d->a;
}
`)
	res, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Sunk != 1 {
		for _, e := range res.Edits {
			t.Logf("edit: %s", e)
		}
		t.Fatalf("sunk = %d, want 1\n%s", res.Sunk, res.Summary())
	}
	if got := countOps(mod, ir.OpFence); got != 1 {
		t.Errorf("fences after sink = %d, want 1", got)
	}
}

// TestOptimizeStaticAnalyzeSpan: every static analysis the pass runs,
// of its own baseline or of a caller's, and one per candidate, records
// a static-analyze span under the pass's optimize span, so span trees,
// -spans/-metrics output and the daemon's phase rows include it.
func TestOptimizeStaticAnalyzeSpan(t *testing.T) {
	const src = `
struct cell { int a; };

int main() {
	cell *c = (cell*) pm_root(sizeof(cell));
	c->a = 3;
	clwb((byte*) &c->a);
	clwb((byte*) &c->a);
	sfence();
	pm_checkpoint();
	return c->a;
}
`
	for _, withBaseline := range []bool{false, true} {
		mod := mustModule(t, src)
		opts := Options{}
		if withBaseline {
			run, err := core.TraceAndCheck(nil, mod, "main", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			opts.Baseline = run
		}
		rec := obs.New()
		opts.Obs = rec.StartSpan("test")
		res, err := Optimize(mod, opts)
		opts.Obs.End()
		if err != nil {
			t.Fatalf("baseline=%t: Optimize: %v", withBaseline, err)
		}
		optID, analyses := -1, 0
		for _, s := range rec.Spans() {
			switch s.Name {
			case "optimize":
				optID = s.ID
			case "static-analyze":
				if s.Parent != optID {
					t.Errorf("baseline=%t: static-analyze span under span %d, want the optimize span %d", withBaseline, s.Parent, optID)
				}
				analyses++
			}
		}
		if want := 1 + res.Candidates; analyses != want {
			t.Errorf("baseline=%t: %d static-analyze spans under optimize, want %d (baseline plus %d candidate(s))", withBaseline, analyses, want, res.Candidates)
		}
	}
}

// TestOptimizeObsCountersAndAudit checks the provenance plumbing: the
// pass publishes per-kind edit counters and records one audit entry per
// candidate, applied or rejected, carrying its origin and proof.
func TestOptimizeObsCountersAndAudit(t *testing.T) {
	mod := mustModule(t, `
struct cell { int a; };

int main() {
	cell *c = (cell*) pm_root(sizeof(cell));
	c->a = 3;
	clwb((byte*) &c->a);
	clwb((byte*) &c->a);
	sfence();
	pm_checkpoint();
	return c->a;
}
`)
	rec := obs.New()
	sp := rec.StartSpan("test")
	res, err := Optimize(mod, Options{Obs: sp})
	sp.End()
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Deleted != 1 {
		t.Fatalf("deleted = %d, want 1\n%s", res.Deleted, res.Summary())
	}
	if got := rec.Counter("optimize.edits.deleted"); got != 1 {
		t.Errorf("optimize.edits.deleted = %d, want 1", got)
	}
	for _, name := range []string{"optimize.edits.merged", "optimize.edits.sunk", "optimize.edits.rejected"} {
		if got := rec.Counter(name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := rec.Counter("optimize.candidates"); got != int64(res.Candidates) {
		t.Errorf("optimize.candidates = %d, want %d", got, res.Candidates)
	}
	var entries int
	for _, e := range rec.AuditTrail() {
		switch e.Action {
		case "delete-flush", "delete-fence", "coalesce-flush", "sink-fence":
			entries++
			if e.Decision != "applied" && e.Decision != "rejected" {
				t.Errorf("audit entry decision = %q", e.Decision)
			}
			if e.Mechanism == "" || e.Site == "" {
				t.Errorf("audit entry missing provenance: %+v", e)
			}
		}
	}
	if entries != len(res.Edits) {
		t.Errorf("audit entries = %d, want one per edit (%d)", entries, len(res.Edits))
	}
}

// TestOptimizeSinksFence checks the sink shape: a fence immediately
// followed by another fence defers its drain to the second one.
func TestOptimizeSinksFence(t *testing.T) {
	mod := mustModule(t, `
struct cell { int a; int b; };

int main() {
	cell *c = (cell*) pm_root(sizeof(cell));
	c->a = 3;
	clwb((byte*) &c->a);
	sfence();
	sfence();
	pm_checkpoint();
	return c->a;
}
`)
	res, err := Optimize(mod, Options{})
	if err != nil {
		t.Fatalf("Optimize: %v", err)
	}
	if res.Applied() != 1 {
		for _, e := range res.Edits {
			t.Logf("edit: %s", e)
		}
		t.Fatalf("applied = %d, want exactly 1 fence gone\n%s", res.Applied(), res.Summary())
	}
	if got := countOps(mod, ir.OpFence); got != 1 {
		t.Errorf("fences = %d, want 1", got)
	}
}

// TestCrashCompareRefusesNewFailures drives the proof's last check
// directly. The candidate sources nominate only edits that cannot change
// a crash verdict, so no corpus program reaches this refusal; the check
// stays as the backstop against a source that one day does. Compared
// against a current build that failed no schedule, a build whose
// recovery pm_assert fails must be refused, naming both failure counts.
func TestCrashCompareRefusesNewFailures(t *testing.T) {
	mod := mustModule(t, `
pm int payload;
pm int flag;

int crash_check(int completed) {
	int intact = 1;
	if (flag == 1) {
		if (payload != 42) { intact = 0; }
	}
	pm_assert(intact, "published payload lost");
	return 0;
}

int main() {
	payload = 42;
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	sig, err := measure(mod, "main", Options{}, pmcheck.NewDetector(), nil)
	if err != nil {
		t.Fatal(err)
	}
	keys := alignKeys(sig.events, 0, false, recoveryEntry(mod, "", crashsim.DefaultRecovery))
	pts, err := keysToPoints(sig.events, keys)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := crashsim.Validate(mod, csOptions(Options{}, "main", pts, nil))
	if err != nil {
		t.Fatal(err)
	}
	failures := failureSig(rep, sig.events)
	if len(failures) == 0 {
		t.Fatal("unflushed payload failed no crash schedule")
	}
	for key := range failures {
		if !strings.HasSuffix(key, "|@crash_check|interp: pm_assert failed: published payload lost") {
			t.Errorf("failure signature %q does not end with the assertion's first line", key)
		}
	}
	got, reason := crashCompare(mod, sig, keys, map[string]int{}, Options{Cache: crashsim.NewVerdictCache()}, "main")
	want := fmt.Sprintf("crashsim verdicts changed: 0 failing schedule(s) before, %d after", total(failures))
	if got != nil || reason != want {
		t.Errorf("crashCompare = (%v, %q), want a refusal %q", got, reason, want)
	}
}
