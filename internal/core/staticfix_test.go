package core

import (
	"testing"

	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/static"
)

// TestStaticRepairRevalidationReusesSummaries: the post-repair
// re-analysis must replay summaries for every function the repair plan
// did not touch, instead of recomputing the module from scratch.
func TestStaticRepairRevalidationReusesSummaries(t *testing.T) {
	const src = `
pm int cell[64];
void put(int *p, int v) {
	*p = v;
	clwb(p);
	sfence();
}
int main() {
	put(&cell[0], 1);
	cell[8] = 9;
	pm_checkpoint();
	return cell[8];
}
`
	m, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := StaticRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fix == nil || len(res.Fix.Fixes) == 0 {
		t.Fatal("expected the bare store in main to be repaired")
	}
	if !res.After.Clean() {
		t.Fatalf("revalidation not clean:\n%s", res.After.Summary())
	}
	// put was not touched by the repair: its summary (and both functions'
	// alias constraints when bodies are unchanged) must come from the
	// store primed by the Before pass.
	if res.After.Incr.SumHits == 0 {
		t.Errorf("revalidation replayed nothing: incr = %+v", res.After.Incr)
	}
	if res.Before.Incr.SumMisses == 0 {
		t.Errorf("before pass should prime the store: incr = %+v", res.Before.Incr)
	}
}

// TestStaticRepairSolvesAliasTwice: a static repair solves alias
// analysis once before the fix, and the fixer plans over that solution,
// and once in the post-repair re-analysis. Every solve looks each
// function's constraint list up in the store, so the store's constraint
// traffic is exactly the two analysis passes' own; a third solve inside
// the fixer would add a lookup per function. The span tree agrees: two
// static-analyze spans and no alias-analyze span.
func TestStaticRepairSolvesAliasTwice(t *testing.T) {
	const src = `
pm int cell[64];
void put(int *p, int v) {
	*p = v;
	clwb(p);
}
int main() {
	put(&cell[0], 1);
	cell[8] = 9;
	pm_checkpoint();
	return cell[8];
}
`
	m, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	store := static.NewStore(0)
	rec := obs.New()
	root := rec.StartSpan("job")
	res, err := StaticRepair(m, "main", Options{SummaryStore: store, Obs: root})
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.Fix == nil || len(res.Fix.Fixes) == 0 || res.After == res.Before {
		t.Fatal("expected a repair and a post-repair re-analysis")
	}
	before := res.Before.Incr.ConsHits + res.Before.Incr.ConsMisses
	after := res.After.Incr.ConsHits + res.After.Incr.ConsMisses
	if before == 0 || after == 0 {
		t.Fatalf("an analysis pass made no constraint lookups: before %d, after %d", before, after)
	}
	st := store.Stats()
	if got := st.ConsHits + st.ConsMisses; got != int64(before+after) {
		t.Errorf("store saw %d constraint lookups, want %d (before %d + after %d): alias analysis ran more than twice",
			got, before+after, before, after)
	}
	spans := map[string]int{}
	for _, pt := range rec.PhaseTotals() {
		spans[pt.Name] = pt.Spans
	}
	if spans["static-analyze"] != 2 || spans["alias-analyze"] != 0 {
		t.Errorf("span counts: static-analyze %d, alias-analyze %d; want 2 and 0",
			spans["static-analyze"], spans["alias-analyze"])
	}
}

// TestStaticRepairSharesCallerStore: a caller-provided store must carry
// summaries across whole StaticRepair invocations — the second repair of
// identical source starts fully warm.
func TestStaticRepairSharesCallerStore(t *testing.T) {
	const src = `
pm int cell[64];
int main() {
	cell[0] = 7;
	pm_checkpoint();
	return cell[0];
}
`
	store := static.NewStore(0)
	m1, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	first, err := StaticRepair(m1, "main", Options{SummaryStore: store})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := lang.Compile("t.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	second, err := StaticRepair(m2, "main", Options{SummaryStore: store})
	if err != nil {
		t.Fatal(err)
	}
	if second.Before.Incr.SumHits == 0 || second.Before.Incr.SumMisses != 0 {
		t.Errorf("second repair should start fully warm: incr = %+v", second.Before.Incr)
	}
	// Do no harm: identical input, identical verdicts either way.
	if first.Before.Summary() != second.Before.Summary() ||
		first.After.Summary() != second.After.Summary() {
		t.Error("warm repair verdicts differ from cold")
	}
	if len(first.Fix.Fixes) != len(second.Fix.Fixes) {
		t.Errorf("fix counts differ: cold %d, warm %d", len(first.Fix.Fixes), len(second.Fix.Fixes))
	}
}
