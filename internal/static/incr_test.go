package static_test

import (
	"reflect"
	"runtime"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/static"
)

// requireSameResult asserts the do-no-harm bar of the summary store: a
// warm analysis must match a cold one byte for byte — reports, lints,
// and the rendered summary.
func requireSameResult(t *testing.T, cold, warm *static.Result) {
	t.Helper()
	if cold.Summary() != warm.Summary() {
		t.Errorf("warm summary differs from cold:\n--- cold ---\n%s--- warm ---\n%s",
			cold.Summary(), warm.Summary())
	}
	if !reflect.DeepEqual(cold.Reports, warm.Reports) {
		t.Error("warm reports differ structurally from cold")
	}
	if !reflect.DeepEqual(cold.Lints, warm.Lints) {
		t.Error("warm lints differ structurally from cold")
	}
	if cold.Funcs != warm.Funcs {
		t.Errorf("warm Funcs = %d, cold = %d", warm.Funcs, cold.Funcs)
	}
}

func analyzeWithStore(t *testing.T, src string, store *static.Store) *static.Result {
	t.Helper()
	m, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := static.AnalyzeWithStore(m, "main", store)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// A three-deep call chain over a leaf PM store. The layouts of incrBase
// and its edited variants keep every function on identical source lines,
// so only the edited function's fingerprint moves.
const incrBase = `
pm int cell[64];
int vol;
void leaf(int *p, int v) {
	*p = v;
}
void mid(int *p, int v) {
	leaf(p, v);
}
void top(int *p, int v) {
	mid(p, v);
}
int main() {
	top(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`

// TestIncrementalWarmIdentical: analyzing the identical source twice
// against one store must hit for every function and produce
// byte-identical results.
func TestIncrementalWarmIdentical(t *testing.T) {
	cold := analyzeSrc(t, incrBase)
	store := static.NewStore(0)
	first := analyzeWithStore(t, incrBase, store)
	if first.Incr.SumHits != 0 || first.Incr.SumMisses != 4 {
		t.Fatalf("priming run: incr = %+v, want 0 hits / 4 misses", first.Incr)
	}
	warm := analyzeWithStore(t, incrBase, store)
	if warm.Incr.SumHits != 4 || warm.Incr.SumMisses != 0 {
		t.Fatalf("warm run: incr = %+v, want 4 hits / 0 misses", warm.Incr)
	}
	if warm.Incr.ConsHits != 4 || warm.Incr.ConsMisses != 0 {
		t.Fatalf("warm run constraints: incr = %+v, want 4 hits / 0 misses", warm.Incr)
	}
	requireSameResult(t, cold, first)
	requireSameResult(t, cold, warm)
}

// TestTransitiveInvalidation: an edit that changes the leaf's summary
// (adding a flush changes its exit facts) must re-analyze every
// transitive caller — the callee summary hash chained into each caller's
// key invalidates the whole spine without any explicit tracking.
func TestTransitiveInvalidation(t *testing.T) {
	const leafFlushes = `
pm int cell[64];
int vol;
void leaf(int *p, int v) {
	*p = v; clwb(p);
}
void mid(int *p, int v) {
	leaf(p, v);
}
void top(int *p, int v) {
	mid(p, v);
}
int main() {
	top(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`
	store := static.NewStore(0)
	analyzeWithStore(t, incrBase, store)
	warm := analyzeWithStore(t, leafFlushes, store)
	if warm.Incr.SumHits != 0 || warm.Incr.SumMisses != 4 {
		t.Fatalf("leaf summary change: incr = %+v, want 0 hits / 4 misses", warm.Incr)
	}
	cold := analyzeSrc(t, leafFlushes)
	requireSameResult(t, cold, warm)
}

// TestSummaryNeutralEditStopsPropagation: an edit that changes the
// leaf's body but NOT its summary (a dead volatile store after the PM
// store) must miss only for the leaf; every caller re-keys against the
// unchanged summary hash and hits.
func TestSummaryNeutralEditStopsPropagation(t *testing.T) {
	const leafNeutral = `
pm int cell[64];
int vol;
void leaf(int *p, int v) {
	*p = v; vol = v;
}
void mid(int *p, int v) {
	leaf(p, v);
}
void top(int *p, int v) {
	mid(p, v);
}
int main() {
	top(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`
	store := static.NewStore(0)
	analyzeWithStore(t, incrBase, store)
	warm := analyzeWithStore(t, leafNeutral, store)
	if warm.Incr.SumHits != 3 || warm.Incr.SumMisses != 1 {
		t.Fatalf("summary-neutral edit: incr = %+v, want 3 hits / 1 miss", warm.Incr)
	}
	cold := analyzeSrc(t, leafNeutral)
	requireSameResult(t, cold, warm)
}

// TestIncrementalCorpusByteIdentical replays the full corpus against one
// shared store, twice, asserting warm output byte-identical to cold for
// every program — the store must neither leak state across programs nor
// drift on repeats. The first program is additionally checked against
// the dynamic detector from the warm result, so the agreement verdict
// itself is exercised on the cached path.
func TestIncrementalCorpusByteIdentical(t *testing.T) {
	store := static.NewStore(0)
	for round := 0; round < 2; round++ {
		for i, p := range corpus.All() {
			m := p.MustCompile()
			cold, err := static.AnalyzeWithStore(m, p.Entry, nil)
			if err != nil {
				t.Fatalf("%s: cold: %v", p.Name, err)
			}
			wm := p.MustCompile()
			warm, err := static.AnalyzeWithStore(wm, p.Entry, store)
			if err != nil {
				t.Fatalf("%s: warm: %v", p.Name, err)
			}
			requireSameResult(t, cold, warm)
			if round == 1 && warm.Incr.SumMisses != 0 {
				t.Errorf("%s: second round should replay everything, incr = %+v", p.Name, warm.Incr)
			}
			if round == 1 && i == 0 {
				run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				tr := run.Trace
				requireSuperset(t, warm, pmcheck.Check(tr))
			}
		}
	}
	st := store.Stats()
	if st.SummaryHits == 0 {
		t.Error("corpus replay produced no summary hits")
	}
	t.Logf("store after corpus x2: %+v", st)
}

// TestNoStoreMatchesColdStore: an analysis without a summary store skips
// canonicalizing and hashing summaries, which only feed store keys, so
// over the corpus its Result must deep-equal a cold store-backed run's,
// all but the store traffic counters.
func TestNoStoreMatchesColdStore(t *testing.T) {
	type target struct {
		name, entry string
		compile     func() *ir.Module
	}
	var ts []target
	for _, p := range corpus.All() {
		ts = append(ts, target{p.Name, p.Entry, p.MustCompile})
	}
	for _, p := range corpus.MTPrograms() {
		ts = append(ts, target{p.Name, p.Entry, p.MustCompile})
	}
	for _, tc := range ts {
		bare, err := static.AnalyzeWithStore(tc.compile(), tc.entry, nil)
		if err != nil {
			t.Fatalf("%s: no store: %v", tc.name, err)
		}
		cold, err := static.AnalyzeWithStore(tc.compile(), tc.entry, static.NewStore(0))
		if err != nil {
			t.Fatalf("%s: cold store: %v", tc.name, err)
		}
		if bare.Incr != (static.IncrStats{}) {
			t.Errorf("%s: a run without a store counts store traffic %+v", tc.name, bare.Incr)
		}
		cold.Incr = static.IncrStats{}
		if !reflect.DeepEqual(bare, cold) {
			t.Errorf("%s: the result without a store differs from a cold store-backed one", tc.name)
		}
	}
}

// TestStaticAnalyzeBytes pins the heap cost of one cold analysis of
// corpus redis-pmem from trace_main without a summary store, the
// analysis BenchmarkStaticAnalyze times: the alias solve and the
// bottom-up dataflow over every reachable function. With numbered facts
// in dense word states, chains interned as (frame, prefix) pairs and
// sorted points-to sets it measures about 2.04 MB on amd64; with facts
// and states in maps, chains keyed by func@id; strings and map
// points-to sets it measured about 16.6 MB. The bound is about 12% over.
func TestStaticAnalyzeBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	m := corpus.ByName("redis-pmem").MustCompile()
	analyze := func() {
		if _, err := static.AnalyzeWithStore(m, "trace_main", nil); err != nil {
			t.Fatal(err)
		}
	}
	analyze() // warm up: lazily built fingerprints and the like
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		analyze()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes per analysis", perRun)
	if perRun > 2_300_000 {
		t.Errorf("a cold analysis of redis-pmem allocates %.0f bytes, want <= 2,300,000", perRun)
	}
}
