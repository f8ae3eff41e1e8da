package corpus

import (
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

func TestProgramsCompileAndPass(t *testing.T) {
	// Every corpus program must compile and its workload must pass
	// in-memory (the seeded bugs are durability bugs: they corrupt
	// nothing until a crash).
	for _, p := range All() {
		t.Run(p.Name, func(t *testing.T) {
			m, err := p.Compile()
			if err != nil {
				t.Fatal(err)
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
				t.Fatalf("%s returned %d, want %d", p.Entry, ret, p.WantRet)
			}
		})
	}
}

func TestSeededBugCountsMatchPaper(t *testing.T) {
	total := 0
	for _, p := range paperBuggy() {
		total += len(p.Bugs)
	}
	if total != 23 {
		t.Errorf("total seeded bugs = %d, want the paper's 23", total)
	}
	if got := len(ByTarget("pmdk")); got != 11 {
		t.Errorf("pmdk programs = %d, want 11", got)
	}
	if got := len(PCLHTProgram().Bugs); got != 2 {
		t.Errorf("pclht bugs = %d, want 2", got)
	}
	if got := len(MemcachedProgram().Bugs); got != 10 {
		t.Errorf("memcached bugs = %d, want 10", got)
	}
}

// TestDetectorFindsSeededBugs checks the pmcheck side of §6.1: the
// detector reports exactly the seeded number of unique buggy store sites
// per target.
func TestDetectorFindsSeededBugs(t *testing.T) {
	for _, p := range paperBuggy() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.MustCompile()
			run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			tr := run.Trace
			res := pmcheckCheck(tr)
			if got := res.UniqueSites(); got != len(p.Bugs) {
				t.Errorf("unique buggy sites = %d, want %d\n%s", got, len(p.Bugs), res.Summary())
			}
		})
	}
}

// TestHippocratesFixesAllSeededBugs is the headline §6.1 effectiveness
// result: every one of the 23 bugs is repaired, and re-running the bug
// finder on the repaired program reports nothing.
func TestHippocratesFixesAllSeededBugs(t *testing.T) {
	totalFixedSites := 0
	for _, p := range paperBuggy() {
		t.Run(p.Name, func(t *testing.T) {
			m := p.MustCompile()
			res, err := core.RunAndRepair(m, p.Entry, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Before.Clean() {
				t.Fatal("expected bugs before repair")
			}
			if !res.Fixed() {
				t.Fatalf("bugs remain after repair:\n%s", res.After.Summary())
			}
			totalFixedSites += res.Before.UniqueSites()
			// The workload still passes on the repaired module.
			mach, err := interp.New(m, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			ret, err := mach.Run(p.Entry)
			if err != nil {
				t.Fatalf("repaired program: %v", err)
			}
			if ret != p.WantRet {
				t.Fatalf("repaired program returned %d, want %d", ret, p.WantRet)
			}
			if mach.Track.NumPending() != 0 {
				t.Errorf("repaired program left %d stores non-durable", mach.Track.NumPending())
			}
		})
	}
	if totalFixedSites != 23 {
		t.Errorf("fixed %d unique sites, want 23", totalFixedSites)
	}
}

// TestFig3FixSpecies checks the Fig. 3 accuracy comparison on the eleven
// PMDK bugs: eight interprocedural fixes (functionally identical to the
// developer fixes), three intraprocedural CLWB fixes (functionally
// equivalent to the developers' portable libpmem flushes).
func TestFig3FixSpecies(t *testing.T) {
	identical, equivalent := 0, 0
	for _, p := range ByTarget("pmdk") {
		t.Run(p.Name, func(t *testing.T) {
			m := p.MustCompile()
			res, err := core.RunAndRepair(m, p.Entry, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Fixed() {
				t.Fatalf("not fixed:\n%s", res.After.Summary())
			}
			bug := p.Bugs[0]
			if got := res.Before.Reports[0].Class(); got != bug.Class {
				t.Errorf("bug class = %v, want %v", got, bug.Class)
			}
			for _, fix := range res.Fix.Fixes {
				if !bug.Species.Matches(fix.Kind) {
					t.Errorf("fix kind = %v, want %v (fix: %s)", fix.Kind, bug.Species, fix)
				}
			}
			switch bug.Comparison {
			case "identical":
				identical++
			case "equivalent":
				equivalent++
			}
		})
	}
	if identical != 8 || equivalent != 3 {
		t.Errorf("identical/equivalent = %d/%d, want 8/3", identical, equivalent)
	}
}

// TestFullAAAndTraceAAAgreeOnCorpus is the §6.1 heuristic comparison:
// both marking strategies produce identical fixed binaries on every
// target.
func TestFullAAAndTraceAAAgreeOnCorpus(t *testing.T) {
	for _, p := range paperBuggy() {
		t.Run(p.Name, func(t *testing.T) {
			mFull := p.MustCompile()
			if _, err := core.RunAndRepair(mFull, p.Entry, core.Options{Marks: core.FullAA}); err != nil {
				t.Fatal(err)
			}
			mTrace := p.MustCompile()
			if _, err := core.RunAndRepair(mTrace, p.Entry, core.Options{Marks: core.TraceAA}); err != nil {
				t.Fatal(err)
			}
			if ir.Print(mFull) != ir.Print(mTrace) {
				t.Error("full-aa and trace-aa fixes differ")
			}
		})
	}
}

func TestRedisBaselineIsClean(t *testing.T) {
	// §6.3: pmemcheck found no bugs in Redis-pmem.
	p := ByName("redis-pmem")
	m := p.MustCompile()
	run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace
	res := pmcheckCheck(tr)
	if !res.Clean() {
		t.Errorf("redis-pmem baseline has bugs:\n%s", res.Summary())
	}
}

func TestRedisFlushFreeIsBuggyAndFixable(t *testing.T) {
	p := ByName("redis-flushfree")
	m := p.MustCompile()
	res, err := core.RunAndRepair(m, p.Entry, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Clean() {
		t.Fatal("flush-free Redis must be buggy")
	}
	if !res.Fixed() {
		t.Fatalf("RedisH-full still buggy:\n%s", res.After.Summary())
	}
	if res.Fix.InterprocFixes() == 0 {
		t.Error("expected some interprocedural fixes in RedisH-full")
	}
}

func TestFlushFreePreludeKeepsFences(t *testing.T) {
	src := FlushFreePrelude()
	if !contains(src, "flush-free build") {
		t.Error("stub missing")
	}
	if !contains(src, "sfence()") {
		t.Error("fences must be kept")
	}
	stubStart := index(src, "void pmem_flush")
	stubEnd := stubStart + index(src[stubStart:], "\n}")
	if contains(src[stubStart:stubEnd], "clwb") {
		t.Error("pmem_flush still flushes")
	}
}

func contains(s, sub string) bool { return index(s, sub) >= 0 }

func index(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestFixSpeciesStringsAndMatches(t *testing.T) {
	pairs := []struct {
		s FixSpecies
		k core.FixKind
	}{
		{SpeciesIntraFlush, core.FixIntraFlush},
		{SpeciesIntraFence, core.FixIntraFence},
		{SpeciesIntraFlushFence, core.FixIntraFlushFence},
		{SpeciesInterproc, core.FixInterproc},
	}
	for _, p := range pairs {
		if p.s.String() == "" {
			t.Errorf("species %d has no name", int(p.s))
		}
		if !p.s.Matches(p.k) {
			t.Errorf("%v must match %v", p.s, p.k)
		}
	}
	if SpeciesIntraFlush.Matches(core.FixInterproc) {
		t.Error("cross-species match")
	}
}

func TestProgramLookupsAndSources(t *testing.T) {
	if ByName("no-such-program") != nil {
		t.Error("unknown program lookup must be nil")
	}
	if len(ByTarget("redis")) != 2 {
		t.Error("redis target must have two builds")
	}
	ff := ByName("redis-flushfree")
	if !strings.Contains(ff.Source(), "flush-free build") {
		t.Error("flush-free source must embed the stubbed prelude")
	}
	pm := ByName("redis-pmem")
	if strings.Contains(pm.Source(), "flush-free build") {
		t.Error("baseline source must keep the real prelude")
	}
	if len(paperBuggy()) != 13 { // 11 pmdk programs + pclht + memcached
		t.Errorf("paper buggy programs = %d", len(paperBuggy()))
	}
}

// paperBuggy returns the buggy programs of the paper's §6.1 targets.
func paperBuggy() []*Program {
	var out []*Program
	for _, t := range PaperTargets {
		out = append(out, ByTarget(t)...)
	}
	return out
}
