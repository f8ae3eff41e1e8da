// The memcachedfix example repairs the ten durability bugs seeded in the
// memcached-pm slab-cache core (§6.1) and prints where each fix landed —
// including the interprocedural ones the hoisting heuristic placed to keep
// flushes off the volatile request path.
//
// Run with: go run ./examples/memcachedfix
package main

import (
	"fmt"
	"log"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/pmem"
)

func main() {
	p := corpus.MemcachedProgram()
	mod := p.MustCompile()
	res, err := core.RunAndRepair(mod, p.Entry, core.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("detector: %d unique buggy store sites (the paper found 10)\n", res.Before.UniqueSites())
	fmt.Printf("fixer: %d fixes, %d interprocedural, %d persistent subprogram(s), %d insertion(s) elided by reduction\n\n",
		len(res.Fix.Fixes), res.Fix.InterprocFixes(), res.Fix.ClonesCreated, res.Fix.ReducedFixes)
	for i, fx := range res.Fix.Fixes {
		fmt.Printf("[%2d] %s\n", i+1, fx)
	}
	if !res.Fixed() {
		log.Fatalf("repair incomplete:\n%s", res.After.Summary())
	}

	// Confirm on the simulated machine: the repaired cache leaves nothing
	// volatile behind.
	mach, err := interp.New(mod, interp.Options{})
	if err != nil {
		log.Fatal(err)
	}
	if ret, err := mach.Run(p.Entry); err != nil || ret != 0 {
		log.Fatalf("workload: ret=%d err=%v", ret, err)
	}
	if d := pmem.DiffPM(mach.CrashImage(nil), mach.Mem); d != 0 {
		log.Fatalf("%d byte(s) still at risk", d)
	}
	fmt.Println("\nrepaired memcached-pm is crash-consistent: worst-case crash image matches PM")
}
