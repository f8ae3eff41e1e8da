package bench

import (
	"fmt"
	"os"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// TestDiagPerOp prints per-operation simulated costs for the three Redis
// builds (run with DIAG=1). It is the calibration tool behind the Fig. 4
// cost-model constants.
func TestDiagPerOp(t *testing.T) {
	if os.Getenv("DIAG") == "" {
		t.Skip("set DIAG=1 to print per-op costs")
	}
	builds, err := BuildRedisVariants()
	if err != nil {
		t.Fatal(err)
	}
	for _, pair := range []struct {
		name string
		mod  *ir.Module
	}{{"Redis-pm", builds.Baseline}, {"RedisH-full", builds.Full}, {"RedisH-intra", builds.Intra}} {
		mch, err := interp.New(pair.mod, interp.Options{StepLimit: 1 << 62})
		if err != nil {
			t.Fatal(err)
		}
		measure := func(label string, f func(i int)) {
			t0 := mch.SimTime()
			for i := 0; i < 100; i++ {
				f(i)
			}
			fmt.Printf("%-13s %-10s %8.0f ns/op\n", pair.name, label, (mch.SimTime()-t0)/100)
		}
		measure("insert", func(i int) { mch.Run("cmd_set", uint64(i), 5) })
		measure("overwrite", func(i int) { mch.Run("cmd_set", uint64(i), 9) })
		measure("get", func(i int) { mch.Run("cmd_get", uint64(i)) })
		measure("rmw", func(i int) { mch.Run("cmd_rmw", uint64(i)) })
		if n := mch.NumViolations(); n > 0 {
			t.Errorf("%s: %d violations", pair.name, n)
		}
	}
}
