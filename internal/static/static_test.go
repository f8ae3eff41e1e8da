package static_test

import (
	"testing"

	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmem"
	"hippocrates/internal/static"
)

func analyzeSrc(t *testing.T, src string) *static.Result {
	t.Helper()
	m, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := static.AnalyzeWithStore(m, "main", nil)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestMissingFlushAndFence(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	pm_checkpoint();
	return cell[0];
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if r.Class() != pmem.MissingFlushFence {
		t.Errorf("class = %s, want %s", r.Class(), pmem.MissingFlushFence)
	}
	if r.Func != "main" {
		t.Errorf("report function = %s, want main", r.Func)
	}
	// The store is caught at the explicit checkpoint and again at the end
	// of the program (empty chain).
	if len(r.Checkpoints) != 2 {
		t.Errorf("checkpoint chains = %d, want 2 (pm_checkpoint + end of program)", len(r.Checkpoints))
	}
}

func TestMissingFenceRecordsFlushSite(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	clwb(&cell[0]);
	pm_checkpoint();
	return cell[0];
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if r.Class() != pmem.MissingFence {
		t.Errorf("class = %s, want %s", r.Class(), pmem.MissingFence)
	}
	if len(r.FlushSites) != 1 || r.FlushSites[0].Func != "main" {
		t.Errorf("flush sites = %v, want the main-local clwb", r.FlushSites)
	}
}

func TestFenceWithoutFlushIsMissingFlush(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	sfence();
	pm_checkpoint();
	return cell[0];
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	if got := res.Reports[0].Class(); got != pmem.MissingFlush {
		t.Errorf("class = %s, want %s", got, pmem.MissingFlush)
	}
}

func TestFlushedAndFencedIsClean(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	clwb(&cell[0]);
	sfence();
	pm_checkpoint();
	return cell[0];
}
`)
	if !res.Clean() {
		t.Errorf("expected clean, got:\n%s", res.Summary())
	}
}

func TestOrderedFlushCommitsImmediately(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	clflush(&cell[0]);
	pm_checkpoint();
	return cell[0];
}
`)
	if !res.Clean() {
		t.Errorf("expected clean (CLFLUSH is strongly ordered), got:\n%s", res.Summary())
	}
}

func TestNTStoreNeedsOnlyFence(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	ntstore(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if r.Class() != pmem.MissingFence {
		t.Errorf("class = %s, want %s", r.Class(), pmem.MissingFence)
	}
	if !r.NT {
		t.Error("report not marked non-temporal")
	}
	// For an NT store, the "flush site" is the store itself.
	if len(r.FlushSites) != 1 || r.FlushSites[0].InstrID != r.InstrID {
		t.Errorf("flush sites = %v, want the NT store site itself", r.FlushSites)
	}
}

func TestBranchJoinUnionsNeeds(t *testing.T) {
	// One path flushes, the other does not: the state set at the
	// checkpoint is {dirty, flushed}, whose needs are flush+fence.
	res := analyzeSrc(t, `
pm int cell[16];
int main(int c) {
	cell[0] = 7;
	if (c != 0) {
		clwb(&cell[0]);
	}
	pm_checkpoint();
	return 0;
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if !r.NeedFlush || !r.NeedFence {
		t.Errorf("needs flush=%v fence=%v, want flush+fence (union over both paths)", r.NeedFlush, r.NeedFence)
	}
}

func TestInterproceduralStackAndMustFence(t *testing.T) {
	// The store happens two frames below main; the callee chain must show
	// up in the report stack. drain()'s must-fence demotes the dirty state
	// to dirty-fenced, so the bug is missing-flush only.
	res := analyzeSrc(t, `
pm int cell[16];
void set(int v) {
	cell[0] = v;
}
void drain() {
	sfence();
}
int main() {
	set(9);
	drain();
	pm_checkpoint();
	return 0;
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if r.Func != "set" {
		t.Errorf("report function = %s, want set", r.Func)
	}
	if len(r.Stack) != 2 || r.Stack[1].Func != "main" {
		t.Errorf("stack = %v, want [set, main]", r.Stack)
	}
	if got := r.Class(); got != pmem.MissingFlush {
		t.Errorf("class = %s, want %s (callee fence on every path)", got, pmem.MissingFlush)
	}
}

func TestCalleeMayFlushKeepsCallerSound(t *testing.T) {
	// The helper flushes the line but only on one path, and never fences:
	// the caller's fact must still be reported needing flush+fence.
	res := analyzeSrc(t, `
pm int cell[16];
void maybe_flush(int c) {
	if (c != 0) {
		clwb(&cell[0]);
	}
}
int main(int c) {
	cell[0] = 3;
	maybe_flush(c);
	pm_checkpoint();
	return 0;
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1\n%s", len(res.Reports), res.Summary())
	}
	r := res.Reports[0]
	if !r.NeedFlush || !r.NeedFence {
		t.Errorf("needs flush=%v fence=%v, want flush+fence", r.NeedFlush, r.NeedFence)
	}
}

func TestLoopLocalFlushViaSameValueRule(t *testing.T) {
	// The address is recomputed every iteration, so no constant line range
	// exists; the same-SSA-value same-block rule must still recognize the
	// flush, leaving only the final fence to make everything durable.
	res := analyzeSrc(t, `
pm int cell[64];
int main() {
	for (int i = 0; i < 8; i++) {
		cell[i * 3] = i;
		clwb(&cell[i * 3]);
	}
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Errorf("expected clean, got:\n%s", res.Summary())
	}
}

func TestLoopLocalFlushRangeViaSameValueRule(t *testing.T) {
	// The flush_range twin of the rule above: a range flush of the same
	// address recomputed in the same block covers a store or a copy when
	// its constant length spans the bytes written.
	res := analyzeSrc(t, `
pm int cell[256];
int src[4];
int main() {
	for (int i = 0; i < 8; i++) {
		cell[i * 16] = i;
		flush_range(&cell[i * 16], 8);
		memcpy(&cell[i * 16 + 8], &src[0], 32);
		flush_range(&cell[i * 16 + 8], 32);
	}
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Errorf("expected clean, got:\n%s", res.Summary())
	}
}

func TestDisjointLineRefinement(t *testing.T) {
	// a and b are distinct cache lines of distinct globals: the flush of a
	// provably does not cover b, so b must be reported — and a must not.
	res := analyzeSrc(t, `
pm int a[16];
pm int b[16];
int main() {
	a[0] = 1;
	b[0] = 2;
	clwb(&a[0]);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if len(res.Reports) != 1 {
		t.Fatalf("reports = %d, want 1 (only the b store)\n%s", len(res.Reports), res.Summary())
	}
	if got := res.Reports[0].Class(); got != pmem.MissingFlush {
		t.Errorf("class = %s, want %s (a fence already follows)", got, pmem.MissingFlush)
	}
}

func TestAbortKillsPath(t *testing.T) {
	// The interpreter halts at abort_msg, so the unflushed store on the
	// abort path never reaches a durability point.
	res := analyzeSrc(t, `
pm int cell[16];
int main(int c) {
	if (c != 0) {
		cell[0] = 1;
		abort_msg("bad");
	}
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Errorf("expected clean, got:\n%s", res.Summary())
	}
}

func TestRedundantFlushLint(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	clwb(&cell[0]);
	clwb(&cell[0]);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Fatalf("expected clean, got:\n%s", res.Summary())
	}
	found := 0
	for _, l := range res.Lints {
		if l.Kind == static.LintRedundantFlush {
			found++
		}
	}
	if found != 1 {
		t.Errorf("redundant-flush lints = %d, want 1 (the second clwb)\n%s", found, res.Summary())
	}
}

func TestRedundantFenceLint(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	cell[0] = 7;
	clwb(&cell[0]);
	sfence();
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Fatalf("expected clean, got:\n%s", res.Summary())
	}
	found := 0
	for _, l := range res.Lints {
		if l.Kind == static.LintRedundantFence {
			found++
		}
	}
	if found != 1 {
		t.Errorf("redundant-fence lints = %d, want 1 (the second sfence)\n%s", found, res.Summary())
	}
}

func TestFlushAfterNTStoreLint(t *testing.T) {
	res := analyzeSrc(t, `
pm int cell[16];
int main() {
	ntstore(&cell[0], 7);
	clwb(&cell[0]);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if !res.Clean() {
		t.Fatalf("expected clean, got:\n%s", res.Summary())
	}
	found := 0
	for _, l := range res.Lints {
		if l.Kind == static.LintFlushAfterNT {
			found++
		}
	}
	if found != 1 {
		t.Errorf("flush-after-ntstore lints = %d, want 1\n%s", found, res.Summary())
	}
}

// TestLintCountersPerKind checks that AnalyzeObsStore splits the aggregate
// static.lints counter by lint kind.
func TestLintCountersPerKind(t *testing.T) {
	m, err := lang.Compile("t.pmc", `
pm int cell[16];
int main() {
	cell[0] = 7;
	clwb(&cell[0]);
	clwb(&cell[0]);
	sfence();
	sfence();
	ntstore(&cell[1], 9);
	clwb(&cell[1]);
	sfence();
	pm_checkpoint();
	return 0;
}
`)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.New()
	sp := rec.StartSpan("test")
	res, _, err := static.AnalyzeObsStore(m, "main", nil, sp)
	sp.End()
	if err != nil {
		t.Fatal(err)
	}
	// The flush after the NT store draws both the flush-after-ntstore
	// lint and a redundant-flush lint (it parks nothing either way).
	want := map[string]int64{
		"static.lints.redundant_flush": 2,
		"static.lints.redundant_fence": 1,
		"static.lints.flush_after_nt":  1,
	}
	for name, n := range want {
		if got := rec.Counter(name); got != n {
			t.Errorf("%s = %d, want %d\n%s", name, got, n, res.Summary())
		}
	}
	if got := rec.Counter("static.lints"); got != int64(len(res.Lints)) {
		t.Errorf("static.lints = %d, want %d (the aggregate stays)", got, len(res.Lints))
	}
}

func TestEntryNotFound(t *testing.T) {
	m, err := lang.Compile("t.pmc", `int main() { return 0; }`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := static.AnalyzeWithStore(m, "nope", nil); err == nil {
		t.Error("expected an error for a missing entry function")
	}
}
