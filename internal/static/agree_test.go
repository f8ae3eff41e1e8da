package static_test

import (
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/schedule"
	"hippocrates/internal/static"
)

// requireSuperset asserts the tentpole soundness contract: every store
// site the dynamic detector reports appears in the static reports with
// mechanism needs that cover the dynamic ones. It returns the number of
// extra (false-positive) static sites, which the caller logs as the FP
// gap.
func requireSuperset(t *testing.T, sres *static.Result, dyn *pmcheck.Result) int {
	t.Helper()
	sneeds := sres.NeedsBySite()
	for site, dn := range dyn.NeedsBySite() {
		sn, ok := sneeds[site]
		if !ok {
			t.Errorf("dynamic site %s@%d (%s) missing from static reports", site.Func, site.InstrID, dn)
			continue
		}
		if !sn.Covers(dn) {
			t.Errorf("site %s@%d: static needs %s do not cover dynamic %s", site.Func, site.InstrID, sn, dn)
		}
	}
	return sres.UniqueSites() - dyn.UniqueSites()
}

// TestCorpusAgreement runs the static analysis against every corpus
// program — the paper's buggy targets, their fixed baselines, the redis
// variants, and the nvtree/pmlog extensions — and asserts superset
// soundness site by site, logging the false-positive gap.
func TestCorpusAgreement(t *testing.T) {
	for _, p := range corpus.All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.MustCompile()
			tr, err := core.TraceModule(m, p.Entry)
			if err != nil {
				t.Fatal(err)
			}
			dyn := pmcheck.Check(tr)
			sres, err := static.Analyze(m, p.Entry)
			if err != nil {
				t.Fatal(err)
			}
			gap := requireSuperset(t, sres, dyn)
			t.Logf("static %d site(s), dynamic %d site(s), FP gap %d",
				sres.UniqueSites(), dyn.UniqueSites(), gap)
		})
	}
}

// TestCorpusStaticRepairBothClean is the repair half of the agreement
// harness: driving the fixer from static reports must leave BOTH
// detectors clean on every corpus program, and must not change the
// program's result (do no harm).
func TestCorpusStaticRepairBothClean(t *testing.T) {
	for _, p := range corpus.All() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.MustCompile()
			res, err := core.StaticRepair(m, p.Entry, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.After.Clean() {
				t.Errorf("static re-analysis not clean after static-driven repair:\n%s", res.After.Summary())
			}
			tr, err := core.TraceModule(m, p.Entry)
			if err != nil {
				t.Fatalf("repaired module failed to run: %v", err)
			}
			if dyn := pmcheck.Check(tr); !dyn.Clean() {
				t.Errorf("dynamic detector not clean after static-driven repair:\n%s", dyn.Summary())
			}
			mach, err := interp.New(m, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ret, err := mach.Run(p.Entry)
			if err != nil {
				t.Fatal(err)
			}
			if ret != p.WantRet {
				t.Errorf("repaired %s returned %d, want %d (repair did harm)", p.Entry, ret, p.WantRet)
			}
		})
	}
}

// TestRecursiveSCCAgreement runs the agreement harness on recursive
// programs, the only ones that take the analyzer's SCC fixpoint path
// (fence flags, then summaries, iterated until they stop changing): a
// self-recursive walker storing to successive PM cells, and a ping/pong
// mutual recursion whose ping arm flushes its store and whose pong arm
// does not. Static must stay a superset of dynamic, and static-driven
// repair must leave both detectors clean without changing the result.
func TestRecursiveSCCAgreement(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      uint64
	}{
		{"self-recursive-walker", `
pm int cells[16];
void walk(int i) {
	if (i >= 16) { return; }
	cells[i] = i + 1;
	walk(i + 1);
}
int main() {
	walk(0);
	pm_checkpoint();
	return cells[3];
}
`, 4},
		{"mutual-ping-pong", `
pm int slots[16];
void ping(int i) {
	if (i >= 16) { return; }
	slots[i] = i;
	clwb(&slots[i]);
	pong(i + 1);
}
void pong(int i) {
	if (i >= 16) { return; }
	slots[i] = 2 * i;
	ping(i + 1);
}
int main() {
	ping(0);
	sfence();
	pm_checkpoint();
	return slots[5];
}
`, 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := lang.Compile(tc.name+".pmc", tc.src)
			if err != nil {
				t.Fatal(err)
			}
			tr, err := core.TraceModule(m, "main")
			if err != nil {
				t.Fatal(err)
			}
			dyn := pmcheck.Check(tr)
			if dyn.Clean() {
				t.Fatal("dynamic detector found no bug in a seeded-buggy program")
			}
			sres, err := static.Analyze(m, "main")
			if err != nil {
				t.Fatal(err)
			}
			requireSuperset(t, sres, dyn)
			t.Logf("static %d report(s) at %d site(s), dynamic %d report(s) at %d site(s)",
				len(sres.Reports), sres.UniqueSites(), len(dyn.Reports), dyn.UniqueSites())

			res, err := core.StaticRepair(m, "main", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.After.Clean() {
				t.Errorf("static re-analysis not clean after static-driven repair:\n%s", res.After.Summary())
			}
			tr, err = core.TraceModule(m, "main")
			if err != nil {
				t.Fatalf("repaired module failed to run: %v", err)
			}
			if dyn := pmcheck.Check(tr); !dyn.Clean() {
				t.Errorf("dynamic detector not clean after static-driven repair:\n%s", dyn.Summary())
			}
			mach, err := interp.New(m, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ret, err := mach.Run("main"); err != nil || ret != tc.want {
				t.Errorf("repaired run: ret=%d err=%v, want %d (repair did harm)", ret, err, tc.want)
			}
		})
	}
}

// TestInterprocLintCallerContextGating covers the interprocedural lint
// contract: a callee's redundant-flush lint survives only when every
// caller context proves the redundancy argument (no dirty fact can be
// live across the call). The positive case confirms agreement with the
// dynamic side by deleting the linted flush and re-running both the
// workload and the dynamic detector; the negative case asserts the
// conservative suppression.
func TestInterprocLintCallerContextGating(t *testing.T) {
	const helper = `
pm int cell[16];
void persist_twice() {
	cell[0] = 7;
	clwb(&cell[0]);
	clwb(&cell[0]);
	sfence();
}
`
	compile := func(src string) *ir.Module {
		t.Helper()
		m, err := lang.Compile("t.pmc", src)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	calleeLints := func(m *ir.Module) []*static.Lint {
		t.Helper()
		res, err := static.Analyze(m, "main")
		if err != nil {
			t.Fatal(err)
		}
		var out []*static.Lint
		for _, l := range res.Lints {
			if l.Kind == static.LintRedundantFlush && l.Site.Func == "persist_twice" {
				out = append(out, l)
			}
		}
		return out
	}

	// Clean caller context: main calls the helper with nothing pending,
	// so the helper's second clwb is redundant on every call chain.
	clean := compile(helper + `
int main() {
	persist_twice();
	pm_checkpoint();
	return cell[0];
}
`)
	lints := calleeLints(clean)
	if len(lints) != 1 {
		t.Fatalf("callee redundant-flush lints under a clean context = %d, want 1", len(lints))
	}

	// Dynamic agreement: deleting the linted flush must change nothing
	// the dynamic detector or the workload can observe.
	fn := clean.Func("persist_twice")
	in := fn.InstrByID(lints[0].Site.InstrID)
	if in == nil || in.Op != ir.OpFlush {
		t.Fatalf("lint site %v does not resolve to a flush", lints[0].Site)
	}
	in.Block().RemoveInstr(in)
	tr, err := core.TraceModule(clean, "main")
	if err != nil {
		t.Fatalf("module broken after deleting the linted flush: %v", err)
	}
	if dyn := pmcheck.Check(tr); !dyn.Clean() {
		t.Errorf("dynamic detector disagrees with the lint:\n%s", dyn.Summary())
	}
	mach, err := interp.New(clean, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ret, err := mach.Run("main"); err != nil || ret != 7 {
		t.Errorf("workload after deletion: ret=%d err=%v, want 7", ret, err)
	}

	// Dirty caller context: main has an unflushed store live across the
	// call, so the helper's flushes may cover it and the local
	// redundancy argument no longer holds — the lint must be dropped.
	dirty := compile(helper + `
int main() {
	cell[1] = 1;
	persist_twice();
	pm_checkpoint();
	return cell[0];
}
`)
	if lints := calleeLints(dirty); len(lints) != 0 {
		t.Errorf("callee redundant-flush lints under a dirty context = %d, want 0 (suppressed)", len(lints))
	}
}

// progenSeeds is the number of random programs the generator-based
// agreement sweep covers.
const progenSeeds = 250

// TestProgenAgreement sweeps generated programs: static must stay a
// superset of dynamic on each, and the static-driven repair must leave
// both detectors clean without changing the program's checksum.
func TestProgenAgreement(t *testing.T) {
	totalGap, maxGap := 0, 0
	for seed := int64(0); seed < progenSeeds; seed++ {
		m := progen.Generate(seed, progen.DefaultConfig())
		tr, err := core.TraceModule(m, "main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dyn := pmcheck.Check(tr)
		sres, err := static.Analyze(m, "main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sneeds := sres.NeedsBySite()
		for site, dn := range dyn.NeedsBySite() {
			sn, ok := sneeds[site]
			if !ok {
				t.Errorf("seed %d: dynamic site %s@%d (%s) missing from static reports", seed, site.Func, site.InstrID, dn)
				continue
			}
			if !sn.Covers(dn) {
				t.Errorf("seed %d: site %s@%d: static needs %s do not cover dynamic %s", seed, site.Func, site.InstrID, sn, dn)
			}
		}
		gap := sres.UniqueSites() - dyn.UniqueSites()
		totalGap += gap
		if gap > maxGap {
			maxGap = gap
		}

		// Do-no-harm on the static-driven repair: same checksum, both
		// detectors clean.
		mach, err := interp.New(m, interp.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		want, err := mach.Run("main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		res, err := core.StaticRepair(m, "main", core.Options{})
		if err != nil {
			t.Fatalf("seed %d: static repair: %v", seed, err)
		}
		if !res.After.Clean() {
			t.Errorf("seed %d: static re-analysis not clean:\n%s", seed, res.After.Summary())
		}
		rtr, err := core.TraceModule(m, "main")
		if err != nil {
			t.Fatalf("seed %d: repaired module failed to run: %v", seed, err)
		}
		if rdyn := pmcheck.Check(rtr); !rdyn.Clean() {
			t.Errorf("seed %d: dynamic detector not clean after static repair:\n%s", seed, rdyn.Summary())
		}
		mach2, err := interp.New(m, interp.Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got, err := mach2.Run("main")
		if err != nil {
			t.Fatalf("seed %d: repaired run: %v", seed, err)
		}
		if got != want {
			t.Errorf("seed %d: checksum changed %d -> %d (repair did harm)", seed, want, got)
		}
		if err := ir.Verify(m); err != nil {
			t.Errorf("seed %d: repaired module fails verification: %v", seed, err)
		}
	}
	t.Logf("%d seeds: total FP gap %d site(s), max per-program %d", progenSeeds, totalGap, maxGap)
}

// threadedSeeds is the number of generated concurrent programs in the
// threaded agreement sweep.
const threadedSeeds = 100

// TestProgenThreadedAgreement sweeps generated multi-threaded programs:
// the static spawn fallback deliberately over-approximates, but at every
// store site the dynamic detector reports under ANY explored interleaving
// the static needs must still cover the dynamic ones. The dynamic side is
// the union over a bounded schedule exploration, so the superset claim is
// against schedule-dependent verdicts, not just the round-robin run.
func TestProgenThreadedAgreement(t *testing.T) {
	totalGap, maxGap := 0, 0
	for seed := int64(0); seed < threadedSeeds; seed++ {
		m := progen.Generate(seed, progen.ThreadedConfig(seed))
		ex, err := schedule.Explore(m, "main", nil, schedule.Options{MaxSchedules: 8})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		dynSites := map[pmcheck.SiteKey]pmcheck.Needs{}
		for _, r := range ex.Runs {
			if r.Err != nil {
				t.Fatalf("seed %d: schedule %s faulted: %v", seed, r.ID, r.Err)
			}
			for site, dn := range r.Check.NeedsBySite() {
				n := dynSites[site]
				n.Flush = n.Flush || dn.Flush
				n.Fence = n.Fence || dn.Fence
				dynSites[site] = n
			}
		}
		sres, err := static.Analyze(m, "main")
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sneeds := sres.NeedsBySite()
		for site, dn := range dynSites {
			sn, ok := sneeds[site]
			if !ok {
				t.Errorf("seed %d: dynamic site %s@%d (%s) missing from static reports", seed, site.Func, site.InstrID, dn)
				continue
			}
			if !sn.Covers(dn) {
				t.Errorf("seed %d: site %s@%d: static needs %s do not cover dynamic %s", seed, site.Func, site.InstrID, sn, dn)
			}
		}
		if len(sres.Lints) != 0 {
			t.Errorf("seed %d: %d lint(s) in a spawn module, want none", seed, len(sres.Lints))
		}
		gap := sres.UniqueSites() - len(dynSites)
		totalGap += gap
		if gap > maxGap {
			maxGap = gap
		}
	}
	t.Logf("%d threaded seeds: total FP gap %d site(s), max per-program %d", threadedSeeds, totalGap, maxGap)
}
