package corpus

import (
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// runCrashCheck runs the workload, crashes with nothing extra reaching PM,
// and runs the program's crash_check entry on the image.
func runCrashCheck(t *testing.T, m *ir.Module, entry string) uint64 {
	t.Helper()
	mach, err := interp.New(m, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ret, err := mach.Run(entry); err != nil || ret != 0 {
		t.Fatalf("workload: ret=%d err=%v", ret, err)
	}
	rec, err := interp.New(m, interp.Options{Memory: mach.CrashImage(nil), ResumePM: true})
	if err != nil {
		t.Fatal(err)
	}
	// A crash at the end of the workload has passed every durability point.
	got, err := rec.Run("crash_check", uint64(mach.Checkpoints()))
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return got
}

// TestExtensionTargets validates the beyond-the-paper corpus programs
// (NV-Tree-style B+-tree, undo-log transactions): the detector finds the
// seeded bug count, Hippocrates repairs everything, and the crash-recovery
// invariants flip from broken to intact.
func TestExtensionTargets(t *testing.T) {
	for _, p := range ExtensionPrograms() {
		t.Run(p.Name, func(t *testing.T) {
			// Detector: seeded site count.
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

			// The buggy build corrupts its recovery invariant.
			if got := runCrashCheck(t, p.MustCompile(), p.Entry); got == 0 {
				t.Error("buggy build recovered losslessly; the seeded bugs have no bite")
			}

			// Repair and revalidate.
			fixed := p.MustCompile()
			pr, err := core.RunAndRepair(fixed, p.Entry, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !pr.Fixed() {
				t.Fatalf("repair incomplete:\n%s", pr.After.Summary())
			}
			if got := runCrashCheck(t, fixed, p.Entry); got != 0 {
				t.Errorf("repaired build failed crash_check: %d", got)
			}
		})
	}
}

// TestExtensionAAAgreement extends the §6.1 Full-AA/Trace-AA comparison to
// the extension targets.
func TestExtensionAAAgreement(t *testing.T) {
	for _, p := range ExtensionPrograms() {
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
