package crashsim

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"hippocrates/internal/interp"
)

func TestExhaustiveCutsCoversSpace(t *testing.T) {
	sizes := []int{2, 0, 3}
	got := exhaustiveCuts(sizes)
	want := (2 + 1) * (0 + 1) * (3 + 1)
	if len(got) != want {
		t.Fatalf("enumerated %d schedules, want %d", len(got), want)
	}
	seen := map[string]bool{}
	for _, cuts := range got {
		if len(cuts) != len(sizes) {
			t.Fatalf("schedule %v has wrong arity", cuts)
		}
		for i, c := range cuts {
			if c < 0 || c > sizes[i] {
				t.Fatalf("schedule %v out of bounds at line %d", cuts, i)
			}
		}
		k := cutsKey(cuts)
		if seen[k] {
			t.Fatalf("duplicate schedule %v", cuts)
		}
		seen[k] = true
	}
}

func TestEnumerateCutsExhaustiveWhenSmall(t *testing.T) {
	sizes := []int{1, 2}
	got, feasible := enumerateCuts(sizes, 16, 1, &sampler{})
	if feasible != 6 {
		t.Fatalf("feasible = %d, want 6", feasible)
	}
	if len(got) != 6 {
		t.Fatalf("exhaustive enumeration returned %d schedules, want 6", len(got))
	}
}

func TestEnumerateCutsSampling(t *testing.T) {
	sizes := []int{3, 3, 3, 3, 3} // 4^5 = 1024 feasible
	budget := 20
	var rng sampler
	a, feasible := enumerateCuts(sizes, budget, 7, &rng)
	if feasible != 1024 {
		t.Fatalf("feasible = %d, want 1024", feasible)
	}
	if len(a) != budget {
		t.Fatalf("sampled %d schedules, want the full budget %d", len(a), budget)
	}
	// Deterministic: the same seed reproduces the same selection, also
	// when the sampler is reseeded rather than created.
	enumerateCuts(sizes, budget, 8, &rng)
	b, _ := enumerateCuts(sizes, budget, 7, &rng)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sampling is not deterministic for a fixed seed")
	}
	// The all-zero corner (the historical worst-case spot check) is
	// always the first schedule; the all-max corner is present too.
	if !reflect.DeepEqual(a[0], []int{0, 0, 0, 0, 0}) {
		t.Fatalf("first schedule = %v, want the all-zero corner", a[0])
	}
	foundFull := false
	seen := map[string]bool{}
	for _, cuts := range a {
		if reflect.DeepEqual(cuts, []int{3, 3, 3, 3, 3}) {
			foundFull = true
		}
		for i, c := range cuts {
			if c < 0 || c > sizes[i] {
				t.Fatalf("schedule %v out of bounds at line %d", cuts, i)
			}
		}
		k := cutsKey(cuts)
		if seen[k] {
			t.Fatalf("duplicate schedule %v", cuts)
		}
		seen[k] = true
	}
	if !foundFull {
		t.Fatal("all-max corner missing from the sample")
	}
}

func TestEnumerateCutsOverflowGuard(t *testing.T) {
	sizes := make([]int, 64)
	for i := range sizes {
		sizes[i] = 1 << 10
	}
	got, feasible := enumerateCuts(sizes, 8, 3, &sampler{})
	if feasible != maxFeasible {
		t.Fatalf("feasible = %d, want the %d cap", feasible, maxFeasible)
	}
	if len(got) != 8 {
		t.Fatalf("sampled %d schedules, want 8", len(got))
	}
}

func TestSelectPointsKeepsEligibleCheckpoints(t *testing.T) {
	s, f, c := interp.EvStore, interp.EvFlush, interp.EvCheckpoint
	log := []interp.PMEventKind{s, f, c, s, s, f, c, s, c}
	arity1 := &entrySpec{name: "crash_check", arity: 1}
	arity0 := &entrySpec{name: "crash_check", arity: 0}

	// Invariant present: every event is eligible, checkpoints always kept.
	got := selectPoints(log, 4, true, arity1)
	for _, ck := range []int{3, 7, 9} {
		if !containsInt(got, ck) {
			t.Fatalf("budget 4: checkpoint event %d dropped (got %v)", ck, got)
		}
	}
	if len(got) != 4 {
		t.Fatalf("budget 4: selected %d points %v", len(got), got)
	}

	// Big budget: everything simulated.
	if got := selectPoints(log, 100, true, arity1); len(got) != len(log) {
		t.Fatalf("budget 100: selected %v, want all %d events", got, len(log))
	}

	// No invariant entry: only checkpoint events can run anything.
	if got := selectPoints(log, 100, false, arity1); !reflect.DeepEqual(got, []int{3, 7, 9}) {
		t.Fatalf("no invariant: selected %v, want the checkpoint events", got)
	}

	// No invariant and an arity-0 promise: only the final checkpoint.
	if got := selectPoints(log, 100, false, arity0); !reflect.DeepEqual(got, []int{9}) {
		t.Fatalf("arity-0 promise: selected %v, want only the final checkpoint", got)
	}

	// Points come out sorted regardless of sampling order.
	got = selectPoints(log, 5, true, arity1)
	if !sortedInts(got) {
		t.Fatalf("points not sorted: %v", got)
	}
}

// selectPointsRef is selectPoints as first written: the non-checkpoint
// events collected into a slice, sampled by index, the union sorted.
func selectPointsRef(log []interp.PMEventKind, budget int, invAll bool, rec *entrySpec) []int {
	lastCkpt := 0
	for i, k := range log {
		if k == interp.EvCheckpoint {
			lastCkpt = i + 1
		}
	}
	var ckpts, rest []int
	for i, k := range log {
		switch {
		case k == interp.EvCheckpoint:
			if !invAll && rec != nil && rec.arity == 0 && i+1 != lastCkpt {
				continue
			}
			ckpts = append(ckpts, i+1)
		case invAll:
			rest = append(rest, i+1)
		}
	}
	points := append([]int{}, ckpts...)
	room := budget - len(points)
	if room >= len(rest) {
		points = append(points, rest...)
	} else if room > 0 {
		for i := 0; i < room; i++ {
			points = append(points, rest[i*len(rest)/room])
		}
	}
	sort.Ints(points)
	return points
}

// TestSelectPointsMatchesReference: selectPoints indexes its sample of
// the non-checkpoint events arithmetically and picks the points the
// collect-and-sort reference does, for random logs, budgets and entry
// shapes.
func TestSelectPointsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kinds := []interp.PMEventKind{interp.EvStore, interp.EvFlush, interp.EvFence, interp.EvCheckpoint}
	recs := []*entrySpec{nil, {name: "crash_check", arity: 0}, {name: "crash_check", arity: 1}}
	for n := 0; n < 2000; n++ {
		log := make([]interp.PMEventKind, rng.Intn(60))
		for i := range log {
			log[i] = kinds[rng.Intn(len(kinds))]
		}
		budget := rng.Intn(70) - 5
		invAll := rng.Intn(2) == 0
		rec := recs[rng.Intn(len(recs))]
		got, want := selectPoints(log, budget, invAll, rec), selectPointsRef(log, budget, invAll, rec)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("log %v budget %d invAll %v rec %+v: selected %v, want %v", log, budget, invAll, rec, got, want)
		}
	}
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func sortedInts(xs []int) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] > xs[i] {
			return false
		}
	}
	return true
}

// TestPointSelectionStableAcrossDedup is the deflake guard for the fast
// path: crash-point selection and per-point schedule enumeration are
// pure functions of the event log, the budgets, and the seed — the
// dedup mode must not leak into either. A Validate-level twin
// (TestDedupVerdictsIdentical) checks the same property end to end via
// Report.PointEvents; this unit pins the two deterministic inputs
// directly so a regression localizes.
func TestPointSelectionStableAcrossDedup(t *testing.T) {
	s, f, c := interp.EvStore, interp.EvFlush, interp.EvCheckpoint
	log := []interp.PMEventKind{s, s, f, c, s, f, s, c, s, s, c}
	arity1 := &entrySpec{name: "crash_check", arity: 1}
	for _, budget := range []int{1, 3, 5, 100} {
		a := selectPoints(log, budget, true, arity1)
		b := selectPoints(log, budget, true, arity1)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("budget %d: point selection not reproducible: %v vs %v", budget, a, b)
		}
	}
	// Schedule order per point depends only on (sizes, budget, seed):
	// the stratified sample opens with the all-zero corner and repeats
	// exactly for the per-point seed formula both engine modes use.
	sizes := []int{2, 4, 1, 3}
	const seed, point = 1, 17
	mk := func() [][]int {
		cuts, _ := enumerateCuts(sizes, 8, seed+int64(point)*1_000_003, &sampler{})
		return cuts
	}
	a, b := mk(), mk()
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule enumeration not reproducible for the per-point seed")
	}
	if !reflect.DeepEqual(a[0], []int{0, 0, 0, 0}) {
		t.Fatalf("first schedule = %v, want the all-zero corner first (stratified order)", a[0])
	}
}
