package progen

import (
	"reflect"
	"testing"
	"time"

	"hippocrates/internal/ir"
	"hippocrates/internal/static"
)

// editCfg is a reduced layered module so the edit-sequence smoke test
// stays fast under -race: 12 leaves + 4 mids + main = 17 functions.
var editCfg = LayeredConfig{Leaves: 12, Mids: 4, LeafOps: 8, PMCells: 2}

// TestLayeredDeterministic: two builds from the same config must agree
// function-by-function on content hashes — the property that lets a
// benchmark compare a fresh cold module against an edited warm one.
func TestLayeredDeterministic(t *testing.T) {
	a, b := Layered(editCfg), Layered(editCfg)
	for _, fa := range a.Funcs {
		if fa.IsDecl() {
			continue
		}
		fb := b.Func(fa.Name)
		if fb == nil {
			t.Fatalf("second build lacks @%s", fa.Name)
		}
		if ir.FuncFingerprint(fa) != ir.FuncFingerprint(fb) {
			t.Errorf("@%s fingerprints differ across identical builds", fa.Name)
		}
	}
	if got := len(a.Funcs); got < 17 {
		t.Errorf("layered module has %d funcs, want >= 17", got)
	}
}

// TestEditSequenceWarmIdentical replays the deterministic edit sequence
// against one shared summary store: after every edit the warm analysis
// must equal a storeless cold analysis of the same module, and the miss
// counts must match each edit kind's invalidation footprint.
func TestEditSequenceWarmIdentical(t *testing.T) {
	m := Layered(editCfg)
	store := static.NewStore(0)
	if _, err := static.AnalyzeWithStore(m, "main", store); err != nil {
		t.Fatal(err)
	}
	for _, e := range Edits(editCfg) {
		if err := ApplyEdit(m, e); err != nil {
			t.Fatal(err)
		}
		cold, err := static.Analyze(m, "main")
		if err != nil {
			t.Fatalf("%s: cold: %v", e, err)
		}
		warm, err := static.AnalyzeWithStore(m, "main", store)
		if err != nil {
			t.Fatalf("%s: warm: %v", e, err)
		}
		if cold.Summary() != warm.Summary() {
			t.Errorf("%s: warm summary differs from cold:\n--- cold ---\n%s--- warm ---\n%s",
				e, cold.Summary(), warm.Summary())
		}
		if !reflect.DeepEqual(cold.Reports, warm.Reports) {
			t.Errorf("%s: warm reports differ structurally from cold", e)
		}
		if !reflect.DeepEqual(cold.Lints, warm.Lints) {
			t.Errorf("%s: warm lints differ structurally from cold", e)
		}
		switch e.Kind {
		case EditValue, EditDeadLocal:
			// Summary-neutral: only the edited function recomputes.
			if warm.Incr.SumMisses != 1 {
				t.Errorf("%s: %d summary misses, want exactly 1 (incr=%+v)", e, warm.Incr.SumMisses, warm.Incr)
			}
		case EditAddPersist:
			// The summary changed: the edited leaf, at least one mid, and
			// main must all recompute.
			if warm.Incr.SumMisses < 3 {
				t.Errorf("%s: %d summary misses, want >= 3 (incr=%+v)", e, warm.Incr.SumMisses, warm.Incr)
			}
		}
		if warm.Incr.SumHits == 0 {
			t.Errorf("%s: warm run replayed nothing (incr=%+v)", e, warm.Incr)
		}
	}
}

// TestEditSequenceWarmSpeedup times the same edit sequence at
// DefaultLayeredConfig scale (at least 50 functions): summed over all
// edits, a warm re-analysis backed by the primed store must be at least
// 3x faster than a storeless cold one, and at least 4x over the
// summary-neutral edits alone. Each warm run is timed once, since its
// first execution is what an editor loop sees; each cold run is the best
// of three. The floors sit well below the ~10x a quiet machine measures,
// so the test catches regressions, not scheduler noise.
// TestEditSequenceWarmIdentical holds the identity and miss counts.
func TestEditSequenceWarmSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timed edit sweep")
	}
	cfg := DefaultLayeredConfig()
	m := Layered(cfg)
	defined := 0
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			defined++
		}
	}
	if defined < 50 {
		t.Fatalf("layered module has %d functions, want >= 50", defined)
	}
	timed := func(store *static.Store) time.Duration {
		start := time.Now()
		if _, err := static.AnalyzeWithStore(m, "main", store); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	store := static.NewStore(0)
	timed(store)
	var cold, warm, neutralCold, neutralWarm time.Duration
	for _, e := range Edits(cfg) {
		if err := ApplyEdit(m, e); err != nil {
			t.Fatal(err)
		}
		// Warm first, from the store the earlier runs primed; the cold
		// runs afterwards are storeless and cannot pollute it.
		w := timed(store)
		c := timed(nil)
		for i := 1; i < 3; i++ {
			c = min(c, timed(nil))
		}
		t.Logf("%s: cold %v, warm %v", e, c, w)
		cold += c
		warm += w
		if e.Kind != EditAddPersist {
			neutralCold += c
			neutralWarm += w
		}
	}
	total, neutral := float64(cold)/float64(warm), float64(neutralCold)/float64(neutralWarm)
	if total < 3 {
		t.Errorf("total warm speedup %.1fx, want >= 3x", total)
	}
	if neutral < 4 {
		t.Errorf("summary-neutral warm speedup %.1fx, want >= 4x", neutral)
	}
	t.Logf("warm speedup: total %.1fx, summary-neutral %.1fx", total, neutral)
}

// TestApplyEditMovesFingerprint: every edit kind must change its
// target's content hash (otherwise the cache could serve a stale body).
func TestApplyEditMovesFingerprint(t *testing.T) {
	for _, e := range Edits(editCfg) {
		m := Layered(editCfg)
		before := ir.FuncFingerprint(m.Func(e.Target))
		if err := ApplyEdit(m, e); err != nil {
			t.Fatal(err)
		}
		if after := ir.FuncFingerprint(m.Func(e.Target)); after == before {
			t.Errorf("%s left @%s's fingerprint unchanged", e, e.Target)
		}
	}
}
