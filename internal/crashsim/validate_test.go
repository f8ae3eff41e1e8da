package crashsim_test

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
)

// srcPublish is a minimal unflushed-payload bug: the payload store never
// reaches PM, yet the flag that publishes it does. The invariant entry is
// eviction-safe (only values actually stored may appear); the durability
// promise — checkpoint passed means both words are durable — anchors at
// the checkpoint, where a repaired build provably has nothing pending.
const srcPublish = `
pm int payload;
pm int flag;

int invariant_check() {
	if (payload != 0 && payload != 42) { return 1; }
	if (flag != 0 && flag != 1) { return 2; }
	return 0;
}

int crash_check(int completed) {
	if (completed >= 1) {
		if (payload != 42) { return 1; }
		if (flag != 1) { return 2; }
	}
	return 0;
}

int main() {
	payload = 42; // missing flush
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`

func TestValidateFindsPublishBug(t *testing.T) {
	mod := lang.MustCompile("publish.pmc", srcPublish)
	rep, err := crashsim.Validate(mod, crashsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatalf("buggy publish survived %d schedules over %d points", rep.Schedules, rep.Points)
	}
	f := rep.Failures[0]
	if f.Entry != "invariant_check" && f.Entry != "crash_check" {
		t.Errorf("failure attributed to %q", f.Entry)
	}
	if f.Event < 1 || f.Event > rep.TotalEvents {
		t.Errorf("failure event %d outside [1, %d]", f.Event, rep.TotalEvents)
	}
}

// TestValidatePMAssertFailure: a recovery entry that states its
// invariant with pm_assert fails the schedule with a typed
// *interp.AssertError, and the failure renders only the assertion's
// first line — the message, not the stack that follows it.
func TestValidatePMAssertFailure(t *testing.T) {
	const src = `
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
	payload = 42; // missing flush
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`
	rep, err := crashsim.Validate(lang.MustCompile("assert.pmc", src), crashsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passed() {
		t.Fatalf("buggy publish survived %d schedules over %d points", rep.Schedules, rep.Points)
	}
	f := rep.Failures[0]
	var ae *interp.AssertError
	if !errors.As(f.Err, &ae) || ae.Msg != "published payload lost" {
		t.Fatalf("failure error = %v, want a pm_assert failure", f.Err)
	}
	const want = "@crash_check interp: pm_assert failed: published payload lost"
	if got := f.String(); !strings.HasSuffix(got, want) {
		t.Errorf("failure renders as %q, want suffix %q", got, want)
	}
	if got := rep.Doc().Failures[0].Error; got != "interp: pm_assert failed: published payload lost" {
		t.Errorf("failure doc error = %q, want the assertion's first line", got)
	}
}

func TestValidatePassesAfterRepair(t *testing.T) {
	mod := lang.MustCompile("publish.pmc", srcPublish)
	pr, err := core.RunAndRepair(mod, "main", core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !pr.Fixed() {
		t.Fatalf("repair incomplete:\n%s", pr.After.Summary())
	}
	rep, err := crashsim.Validate(mod, crashsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("repaired build failed: %s", rep.Failures[0])
	}
	if rep.Points < 1 || rep.Schedules < 1 {
		t.Fatalf("degenerate run: %d points, %d schedules", rep.Points, rep.Schedules)
	}
}

// srcWide pends many cache lines at once so a crash point's feasible
// image count exceeds any small budget, forcing the sampler.
const srcWide = `
pm int slots[128];
pm int done;

int invariant_check() {
	if (done == 1) {
		for (int i = 0; i < 16; i++) {
			if (slots[i * 16] != i + 1) { return 1 + i; }
		}
	}
	return 0;
}

int main() {
	for (int i = 0; i < 16; i++) {
		slots[i * 16] = i + 1; // 16 distinct lines, none flushed
	}
	done = 1;
	clwb(&done);
	sfence();
	pm_checkpoint();
	return 0;
}
`

// TestSampledNeverWeakerThanExhaustiveCorner: the sampler's contract is
// that its first schedule is the all-zero corner, so any failure the
// historical worst-case check (or an exhaustive sweep) would find at a
// crash point is also found under the tightest image budget.
func TestSampledNeverWeakerThanExhaustiveCorner(t *testing.T) {
	exhaustive, err := crashsim.Validate(lang.MustCompile("wide.pmc", srcWide),
		crashsim.Options{MaxImages: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := crashsim.Validate(lang.MustCompile("wide.pmc", srcWide),
		crashsim.Options{MaxImages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if exhaustive.Passed() {
		t.Fatal("exhaustive sweep missed the seeded publish bug")
	}
	if sampled.Passed() {
		t.Fatal("sampling hid a failure the exhaustive sweep finds")
	}
	if sampled.PrunedSchedules == 0 {
		t.Fatal("budget 4 never pruned; the test is not exercising the sampler")
	}
}

// TestValidateWorkerPool drives a workload with enough crash points to
// spread across the full worker pool (run under -race this doubles as the
// concurrency suite for the engine).
func TestValidateWorkerPool(t *testing.T) {
	var b strings.Builder
	b.WriteString("pm int cells[256];\n")
	b.WriteString(`
int invariant_check() {
	for (int i = 0; i < 16; i++) {
		int v = cells[i * 16];
		if (v != 0 && v != i + 1) { return 1 + i; }
	}
	return 0;
}

int main() {
	for (int i = 0; i < 16; i++) {
		cells[i * 16] = i + 1;
		clwb(&cells[i * 16]);
		sfence();
		pm_checkpoint();
	}
	return 0;
}
`)
	rep, err := crashsim.Validate(lang.MustCompile("pool.pmc", b.String()),
		crashsim.Options{Workers: 8, MaxPoints: 64})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("correct program failed: %s", rep.Failures[0])
	}
	if rep.Points < 16 {
		t.Fatalf("only %d crash points; pool under-exercised", rep.Points)
	}
}

// TestValidateEntryShapes covers the entry-resolution contract: a module
// with neither entry is an error, "-" disables an entry, and a
// two-parameter entry is rejected.
func TestValidateEntryShapes(t *testing.T) {
	const srcNone = `
pm int x;
int main() {
	x = 1;
	clwb(&x);
	sfence();
	return 0;
}
`
	if _, err := crashsim.Validate(lang.MustCompile("none.pmc", srcNone), crashsim.Options{}); err == nil {
		t.Error("module without recovery entries validated")
	}

	mod := lang.MustCompile("publish.pmc", srcPublish)
	rep, err := crashsim.Validate(mod, crashsim.Options{Recovery: "-"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.RecoveryEntry != "" || rep.InvariantEntry != "invariant_check" {
		t.Errorf("entries = (%q, %q), want invariant only", rep.InvariantEntry, rep.RecoveryEntry)
	}

	const srcBadArity = `
pm int x;
int invariant_check(int a, int b) { return 0; }
int main() {
	x = 1;
	clwb(&x);
	sfence();
	return 0;
}
`
	if _, err := crashsim.Validate(lang.MustCompile("bad.pmc", srcBadArity), crashsim.Options{}); err == nil {
		t.Error("two-parameter recovery entry accepted")
	}
}

// failureKeys canonicalizes a report's failures for cross-run comparison.
func failureKeys(rep *crashsim.Report) []string {
	out := make([]string, len(rep.Failures))
	for i, f := range rep.Failures {
		out[i] = fmt.Sprintf("%d/%s/%d/%v/%s/%d", f.Event, f.Kind, f.Completed, f.Cuts, f.Entry, f.Ret)
	}
	return out
}

// TestDedupVerdictsIdentical is the dedup soundness gate at unit scale:
// with and without the content-addressed verdict cache, a buggy build
// and a repaired build must report the same schedules, the same crash
// points, and byte-for-byte the same failures. Only the work accounting
// (images built, cache traffic) may differ.
func TestDedupVerdictsIdentical(t *testing.T) {
	for _, tc := range []struct {
		name string
		mod  func() *ir.Module
	}{
		{"buggy-publish", func() *ir.Module { return lang.MustCompile("publish.pmc", srcPublish) }},
		{"buggy-wide", func() *ir.Module { return lang.MustCompile("wide.pmc", srcWide) }},
		{"repaired-publish", func() *ir.Module {
			mod := lang.MustCompile("publish.pmc", srcPublish)
			if _, err := core.RunAndRepair(mod, "main", core.Options{}); err != nil {
				t.Fatal(err)
			}
			return mod
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := crashsim.Options{MaxImages: 8}
			on, err := crashsim.Validate(tc.mod(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.NoDedup = true
			off, err := crashsim.Validate(tc.mod(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if !on.DedupEnabled || off.DedupEnabled {
				t.Fatalf("DedupEnabled flags = (%v, %v), want (true, false)", on.DedupEnabled, off.DedupEnabled)
			}
			if on.Schedules != off.Schedules || on.Points != off.Points {
				t.Errorf("work disagrees: dedup %d schedules/%d points, no-dedup %d/%d",
					on.Schedules, on.Points, off.Schedules, off.Points)
			}
			if !reflect.DeepEqual(on.PointEvents, off.PointEvents) {
				t.Errorf("point selection diverged: %v vs %v", on.PointEvents, off.PointEvents)
			}
			if a, b := failureKeys(on), failureKeys(off); !reflect.DeepEqual(a, b) {
				t.Errorf("verdicts diverged:\n  dedup:    %v\n  no-dedup: %v", a, b)
			}
			if off.CacheHits != 0 || off.CacheMisses != 0 || off.DedupedSchedules != 0 {
				t.Errorf("no-dedup run reported cache traffic: %d hits, %d misses, %d deduped",
					off.CacheHits, off.CacheMisses, off.DedupedSchedules)
			}
			if on.ImagesBuilt > off.ImagesBuilt {
				t.Errorf("dedup built more images (%d) than no-dedup (%d)", on.ImagesBuilt, off.ImagesBuilt)
			}
			if on.CacheHits+on.CacheMisses == 0 {
				t.Error("dedup run recorded no cache lookups")
			}
		})
	}
}

// TestDedupAccounting pins the new Report fields on a run where byte
// collisions are guaranteed: a correct program whose every crash point
// leaves the same durable bytes feasible many times over.
func TestDedupAccounting(t *testing.T) {
	mod := lang.MustCompile("publish.pmc", srcPublish)
	if _, err := core.RunAndRepair(mod, "main", core.Options{}); err != nil {
		t.Fatal(err)
	}
	rep, err := crashsim.Validate(mod, crashsim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("repaired build failed: %s", rep.Failures[0])
	}
	if rep.DedupedSchedules == 0 && rep.CacheHits == 0 {
		t.Error("no dedup on a workload full of identical images")
	}
	if rep.ImagesBuilt == 0 {
		t.Error("ImagesBuilt = 0; nothing was ever judged")
	}
	if rep.ImagesBuilt != int(rep.CacheMisses) {
		t.Errorf("ImagesBuilt (%d) != CacheMisses (%d): every miss should boot exactly one image",
			rep.ImagesBuilt, rep.CacheMisses)
	}
	if rep.PagesShared == 0 {
		t.Error("PagesShared = 0; captures are not sharing durable pages")
	}
	if !strings.Contains(rep.Summary(), "crashsim: dedup:") {
		t.Errorf("Summary lacks the dedup line:\n%s", rep.Summary())
	}
	rep2, err := crashsim.Validate(lang.MustCompile("publish.pmc", srcPublish),
		crashsim.Options{NoDedup: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep2.Summary(), "dedup disabled") {
		t.Errorf("NoDedup Summary lacks the disabled note:\n%s", rep2.Summary())
	}
}

// TestSharedCacheAcrossRuns: a second Validate of the same module with a
// shared VerdictCache must serve (nearly) everything from the cache.
func TestSharedCacheAcrossRuns(t *testing.T) {
	mod := lang.MustCompile("publish.pmc", srcPublish)
	if _, err := core.RunAndRepair(mod, "main", core.Options{}); err != nil {
		t.Fatal(err)
	}
	cache := crashsim.NewVerdictCache()
	opts := crashsim.Options{Cache: cache}
	first, err := crashsim.Validate(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	second, err := crashsim.Validate(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.CacheMisses != 0 {
		t.Errorf("re-validation of an identical module missed the shared cache %d time(s)", second.CacheMisses)
	}
	if second.ImagesBuilt != 0 {
		t.Errorf("re-validation built %d image(s); want 0 (all verdicts cached)", second.ImagesBuilt)
	}
	if first.Passed() != second.Passed() {
		t.Error("shared cache changed the verdict")
	}
	cache.Reset()
	third, err := crashsim.Validate(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.ImagesBuilt == 0 {
		t.Error("Reset did not invalidate the cache")
	}
}
