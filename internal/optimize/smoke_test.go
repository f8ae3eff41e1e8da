package optimize_test

import (
	"sort"
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/optimize"
	"hippocrates/internal/pmcheck"
)

// Smoke caps mirror the corpus crashsim acceptance test so the
// verdict-identity proof covers the same schedules the tier-1 gate
// replays (bounded per target to keep `make optimize-smoke` quick).
const (
	smokeMaxPoints = 16
	smokeMaxImages = 4
	smokeStepLimit = 50_000_000
)

// smokeShowcase are the targets the pass must actually improve: the four
// overpersist shapes (one per candidate source/edit kind) and the
// flush-free redis port, whose eADR premise leaves every sfence with no
// pending line to drain.
var smokeShowcase = map[string]bool{
	"overpersist-double-flush": true,
	"overpersist-flush-merge":  true,
	"overpersist-double-fence": true,
	"overpersist-sink-fence":   true,
	"redis-flushfree":          true,
}

// runAndCheck executes the workload and replays the trace through the
// bug finder, returning the workload's return value and the sorted
// report multiset.
func runAndCheck(t *testing.T, mod *ir.Module, entry string) (uint64, []string) {
	t.Helper()
	mach, err := interp.New(mod, interp.Options{StepLimit: smokeStepLimit})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := mach.Run(entry)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	tr, err := core.TraceModuleOpts(nil, mod, entry, core.Options{StepLimit: smokeStepLimit})
	if err != nil {
		t.Fatalf("trace: %v", err)
	}
	res := pmcheck.Check(tr)
	keys := make([]string, 0, len(res.Reports))
	for _, r := range res.Reports {
		keys = append(keys, r.String())
	}
	sort.Strings(keys)
	return ret, keys
}

// TestOptimizeSmoke runs the optimize pass over the whole corpus — buggy
// targets are Hippocrates-repaired first, clean targets are optimized as
// given — and re-proves every "do no harm" obligation externally: the
// workload return value and the detector's report multiset must be
// unchanged by the accepted edits, the crashsim-able targets (those with
// recovery entries) must carry a verdict-identity proof, and the five
// showcase targets must each lose at least one flush or fence
// (redis-flushfree only after it was repaired). `make optimize-smoke`
// drives exactly this test.
func TestOptimizeSmoke(t *testing.T) {
	var crashsimable, edited int
	for _, p := range corpus.All() {
		mod := p.MustCompile()
		// Repair first whenever the build has durability reports — the
		// seeded-bug targets, but also redis-flushfree, whose stubbed
		// flushes leave every store unpersisted until Hippocrates inserts
		// them (§6.3). Clean builds are optimized as given.
		if _, reports := runAndCheck(t, mod, p.Entry); len(reports) > 0 {
			pr, err := core.RunAndRepair(mod, p.Entry, core.Options{StepLimit: smokeStepLimit})
			if err != nil {
				t.Fatalf("%s: repair: %v", p.Name, err)
			}
			if !pr.Fixed() {
				t.Fatalf("%s: repair incomplete", p.Name)
			}
		} else if p.Name == "redis-flushfree" {
			t.Errorf("%s: no durability reports, so it was not repaired before optimizing", p.Name)
		}
		wantRet, wantReports := runAndCheck(t, mod, p.Entry)
		if wantRet != p.WantRet {
			t.Fatalf("%s: pre-optimize build returned %d, want %d", p.Name, wantRet, p.WantRet)
		}

		res, err := optimize.Optimize(mod, optimize.Options{
			Entry:     p.Entry,
			MaxPoints: smokeMaxPoints,
			MaxImages: smokeMaxImages,
			StepLimit: smokeStepLimit,
		})
		if err != nil {
			t.Fatalf("%s: optimize: %v", p.Name, err)
		}

		// Accounting invariants: every candidate is either applied or
		// rejected, and every one left an edit document.
		if res.Candidates != len(res.Edits) {
			t.Errorf("%s: %d candidates but %d edit documents", p.Name, res.Candidates, len(res.Edits))
		}
		if res.Applied()+res.Rejected != res.Candidates {
			t.Errorf("%s: applied %d + rejected %d != candidates %d",
				p.Name, res.Applied(), res.Rejected, res.Candidates)
		}
		if res.CrashsimProven {
			crashsimable++
			if res.Applied() > 0 && res.CrashPoints == 0 {
				t.Errorf("%s: accepted edits claim a crashsim proof over 0 points", p.Name)
			}
		}
		if res.Applied() > 0 {
			edited++
			if res.SimNsAfter >= res.SimNsBefore {
				t.Errorf("%s: %d accepted edit(s) but simulated time %.1f -> %.1f",
					p.Name, res.Applied(), res.SimNsBefore, res.SimNsAfter)
			}
		}
		if smokeShowcase[p.Name] && res.Applied() == 0 {
			t.Errorf("%s: showcase target accepted no edits (%d candidates, %d rejected)",
				p.Name, res.Candidates, res.Rejected)
		}

		// External "do no harm" proof, independent of the pass's own
		// bookkeeping: same return value, same report multiset.
		gotRet, gotReports := runAndCheck(t, mod, p.Entry)
		if gotRet != wantRet {
			t.Errorf("%s: optimized build returned %d, want %d", p.Name, gotRet, wantRet)
		}
		if strings.Join(gotReports, "\n") != strings.Join(wantReports, "\n") {
			t.Errorf("%s: optimized build changed the report multiset:\nbefore: %v\nafter:  %v",
				p.Name, wantReports, gotReports)
		}
		t.Logf("%-28s candidates=%d applied=%d rejected=%d saved=%.1fns crashsim=%v",
			p.Name, res.Candidates, res.Applied(), res.Rejected, res.SavedNs(), res.CrashsimProven)
	}
	if crashsimable < 15 {
		t.Errorf("only %d crashsim-able targets carried a verdict-identity proof, want >= 15", crashsimable)
	}
	if edited < 5 {
		t.Errorf("only %d targets accepted edits, want >= 5 (showcase floor)", edited)
	}
}
