package ir_test

import (
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
)

// TestVerifyAllocsFlat: Verify keeps one scratch for the whole module, so
// its allocations follow the largest function, not the function count.
// Quadrupling the layered module's leaves (same size each) must not add
// any.
func TestVerifyAllocsFlat(t *testing.T) {
	allocs := func(leaves int) float64 {
		m := progen.Layered(progen.LayeredConfig{Leaves: leaves})
		if err := ir.Verify(m); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() { ir.Verify(m) })
	}
	few, many := allocs(40), allocs(160)
	t.Logf("allocations: %v (40 leaves), %v (160 leaves)", few, many)
	if many > few {
		t.Errorf("Verify allocations grew with the function count: %v for 40 leaves, %v for 160", few, many)
	}
}
