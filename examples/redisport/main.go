// The redisport example reproduces §6.3's workflow end to end: strip every
// flush out of Redis-pmem (keeping the fences), let Hippocrates re-derive
// the persistence mechanisms — once with the hoisting heuristic
// (RedisH-full), once without (RedisH-intra) — and race the three builds
// on a small YCSB mix.
//
// Run with: go run ./examples/redisport
package main

import (
	"fmt"
	"log"

	"hippocrates/internal/bench"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/ycsb"
)

func main() {
	builds, err := bench.BuildRedisVariants()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Hippocrates re-persisted flush-free Redis with %d fixes (%d interprocedural; hoist depths %v)\n",
		builds.FullFixes, builds.FullInterproc, builds.HoistDepths)
	fmt.Printf("RedisH-intra needed %d intraprocedural fixes\n\n", builds.IntraFixes)

	const records, ops = 400, 400
	for _, pair := range []struct {
		name string
		mod  *ir.Module
	}{
		{"RedisH-intra", builds.Intra},
		{"Redis-pm    ", builds.Baseline},
		{"RedisH-full ", builds.Full},
	} {
		mach, err := interp.New(pair.mod, interp.Options{StepLimit: 1 << 62})
		if err != nil {
			log.Fatal(err)
		}
		for _, op := range ycsb.LoadOps(records) {
			if _, err := mach.Run("cmd_set", uint64(op.Key), uint64(op.Value)); err != nil {
				log.Fatal(err)
			}
		}
		loadNS := mach.SimTime()
		gen := ycsb.NewGenerator(ycsb.WorkloadA, records, 1)
		t0 := mach.SimTime()
		for i := 0; i < ops; i++ {
			op := gen.Next()
			switch op.Kind {
			case ycsb.OpRead:
				_, err = mach.Run("cmd_get", uint64(op.Key))
			default:
				_, err = mach.Run("cmd_set", uint64(op.Key), uint64(op.Value))
			}
			if err != nil {
				log.Fatal(err)
			}
		}
		aNS := mach.SimTime() - t0
		if n := mach.NumViolations(); n > 0 {
			log.Fatalf("%s: %d durability violations!", pair.name, n)
		}
		fmt.Printf("%s  load: %7.0f ops/s   workload A: %7.0f ops/s   (durability-clean)\n",
			pair.name,
			float64(records)/(loadNS/1e9),
			float64(ops)/(aNS/1e9))
	}
	fmt.Println("\nthe heuristic keeps flushes off the volatile request path; without it")
	fmt.Println("every parse/reply copy pays a cache-line flush (the paper's §3.2 memcpy tax)")
}
