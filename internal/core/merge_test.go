package core_test

import (
	"reflect"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/static"
)

// mergeInvariant checks that report lists are already merged.
type mergeInvariant struct {
	t              *testing.T
	lists, reports int
}

// check asserts that pmcheck.DedupeByClass is the identity on reports:
// the same reports, in the same order.
func (mi *mergeInvariant) check(what string, reports []*pmcheck.Report) {
	mi.t.Helper()
	mi.lists++
	mi.reports += len(reports)
	merged := pmcheck.DedupeByClass(reports)
	if len(merged) != len(reports) {
		mi.t.Errorf("%s: merging %d report(s) left %d", what, len(reports), len(merged))
		return
	}
	for i, r := range reports {
		if !reflect.DeepEqual(merged[i], r) {
			mi.t.Errorf("%s: merging changed report %d:\n got %s\nwant %s", what, i, merged[i], r)
			return
		}
	}
}

// TestFixerInputsAreMerged pins the invariant that lets the fixer plan
// every report as given: each report list that reaches it already holds
// one report per (call stack, bug class). The lists are the detector's
// verdicts (single-threaded repair), static analysis's (static repair)
// and UnionCheck's (threaded repair, the one caller that combines
// several runs' reports and merges them itself).
func TestFixerInputsAreMerged(t *testing.T) {
	mi := &mergeInvariant{t: t}
	detected := func(name string, run *core.Run, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mi.check(name+" (detector)", run.Check.Reports)
	}
	analyzed := func(name string, sres *static.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		mi.check(name+" (static)", sres.PMCheckReports())
	}
	for _, p := range corpus.All() {
		m := p.MustCompile()
		run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
		detected(p.Name, run, err)
		sres, err := static.AnalyzeWithStore(m, p.Entry, nil)
		analyzed(p.Name, sres, err)
	}
	for seed := int64(0); seed < 250; seed++ {
		m := progen.Generate(seed, progen.DefaultConfig())
		run, err := core.TraceAndCheck(nil, m, "main", core.Options{})
		detected(m.Name, run, err)
	}

	// The edit session of progen's warm ≡ cold test.
	cfg := progen.LayeredConfig{Leaves: 12, Mids: 4, LeafOps: 8, PMCells: 2}
	m := progen.Layered(cfg)
	sres, err := static.AnalyzeWithStore(m, "main", nil)
	analyzed("layered", sres, err)
	for _, e := range progen.Edits(cfg) {
		if err := progen.ApplyEdit(m, e); err != nil {
			t.Fatal(err)
		}
		sres, err := static.AnalyzeWithStore(m, "main", nil)
		analyzed("layered after "+e.String(), sres, err)
	}

	for _, p := range corpus.MTPrograms() {
		ex, err := core.ExploreModule(p.MustCompile(), p.Entry, core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		mi.check(p.Name+" (union)", core.UnionCheck(ex).Reports)
	}
	for seed := int64(0); seed < 200; seed++ {
		m := progen.Generate(seed, progen.ThreadedConfig(seed))
		ex, err := core.ExploreModule(m, "main", core.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		mi.check(m.Name+"-threaded (union)", core.UnionCheck(ex).Reports)
	}
	t.Logf("%d report lists, %d reports", mi.lists, mi.reports)
	if mi.reports == 0 {
		t.Error("no report reached the check")
	}
}
