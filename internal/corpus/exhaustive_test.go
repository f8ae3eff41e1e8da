package corpus

import (
	"errors"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// crashTargets are the corpus programs carrying an invariant_check entry:
// a consistency predicate that must hold in a crash image taken at ANY
// durability point of a correct build.
func crashTargets() []*Program {
	return []*Program{PCLHTProgram(), ByName("nvtree"), ByName("pmlog")}
}

// TestExhaustiveCrashConsistency is the Yat/Agamotto-style validation: the
// repaired program is crashed at every single durability point, and the
// recovery invariant must hold in each resulting crash image. The buggy
// builds must violate the invariant at one point or more (except where the
// seeded bug only loses data without breaking consistency predicates).
func TestExhaustiveCrashConsistency(t *testing.T) {
	for _, p := range crashTargets() {
		t.Run(p.Name, func(t *testing.T) {
			fixed := p.MustCompile()
			if _, err := core.RunAndRepair(fixed, p.Entry, core.Options{}); err != nil {
				t.Fatal(err)
			}
			// One clean run to learn the durability-point count.
			probe, err := interp.New(fixed, interp.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if ret, err := probe.Run(p.Entry); err != nil || ret != p.WantRet {
				t.Fatalf("clean run: ret=%d err=%v", ret, err)
			}
			n := probe.Checkpoints()
			if n < 3 {
				t.Fatalf("only %d durability points; workload too small for exhaustive crashing", n)
			}
			for k := 1; k <= n; k++ {
				if bad := crashAndCheck(t, fixed, p.Entry, k); bad != 0 {
					t.Errorf("crash at durability point %d/%d: invariant violated (%d)", k, n, bad)
				}
			}
			// The buggy build must break the invariant somewhere. pclht and
			// pmlog are exempt: their seeded bugs lose data without breaking
			// the eviction-safe structural predicates, and the loss is caught
			// by the checkpoint-anchored crash_check tests instead.
			buggy := p.MustCompile()
			broken := false
			for k := 1; k <= n && !broken; k++ {
				if crashAndCheck(t, buggy, p.Entry, k) != 0 {
					broken = true
				}
			}
			if p.Name != "pclht" && p.Name != "pmlog" && !broken {
				t.Error("buggy build survived every crash point; seeded bugs have no bite")
			}
		})
	}
}

// crashAndCheck crashes the program at the k-th durability point and runs
// invariant_check on the resulting image.
func crashAndCheck(t *testing.T, m *ir.Module, entry string, k int) uint64 {
	t.Helper()
	var mach *interp.Machine
	mach, err := interp.New(m, interp.Options{OnPMEvent: func(_ int, kind interp.PMEventKind) error {
		if kind == interp.EvCheckpoint && mach.Checkpoints() == k {
			return interp.ErrSimulatedCrash
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run(entry)
	if !errors.Is(err, interp.ErrSimulatedCrash) {
		t.Fatalf("crash %d: err = %v, want simulated crash", k, err)
	}
	rec, err := interp.New(m, interp.Options{Memory: mach.CrashImage(nil), ResumePM: true})
	if err != nil {
		t.Fatal(err)
	}
	bad, err := rec.Run("invariant_check")
	if err != nil {
		t.Fatalf("crash %d: invariant_check: %v", k, err)
	}
	return bad
}
