// Package ycsb implements the Yahoo! Cloud Serving Benchmark workload
// generator (Cooper et al., SoCC'10) used by the paper's Redis and
// memcached experiments (§6.3): the standard core workloads Load and A–F,
// with scrambled-zipfian, latest and uniform key choosers.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is a database operation type.
type OpKind int

// The operation kinds.
const (
	OpRead OpKind = iota
	OpUpdate
	OpInsert
	OpScan
	OpRMW // read-modify-write
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	}
	return fmt.Sprintf("op(%d)", int(k))
}

// Op is one generated operation.
type Op struct {
	Kind OpKind
	Key  int64
	// ScanLen is the record count for OpScan.
	ScanLen int
	// Value seeds the written payload for OpUpdate/OpInsert.
	Value int64
}

// Workload is a YCSB core workload definition: operation proportions plus
// the request-distribution name ("zipfian", "latest" or "uniform").
type Workload struct {
	Name         string
	ReadProp     float64
	UpdateProp   float64
	InsertProp   float64
	ScanProp     float64
	RMWProp      float64
	Distribution string
	MaxScanLen   int
}

// The standard core workloads (YCSB wiki definitions).
var (
	// WorkloadA: update heavy, 50/50 reads and updates.
	WorkloadA = Workload{Name: "A", ReadProp: 0.5, UpdateProp: 0.5, Distribution: "zipfian"}
	// WorkloadB: read mostly, 95/5.
	WorkloadB = Workload{Name: "B", ReadProp: 0.95, UpdateProp: 0.05, Distribution: "zipfian"}
	// WorkloadC: read only.
	WorkloadC = Workload{Name: "C", ReadProp: 1.0, Distribution: "zipfian"}
	// WorkloadD: read latest, 95 reads / 5 inserts.
	WorkloadD = Workload{Name: "D", ReadProp: 0.95, InsertProp: 0.05, Distribution: "latest"}
	// WorkloadE: short ranges, 95 scans / 5 inserts.
	WorkloadE = Workload{Name: "E", ScanProp: 0.95, InsertProp: 0.05, Distribution: "zipfian", MaxScanLen: 100}
	// WorkloadF: read-modify-write, 50 reads / 50 RMW.
	WorkloadF = Workload{Name: "F", ReadProp: 0.5, RMWProp: 0.5, Distribution: "zipfian"}
)

// AllStandard returns the workloads A–F in order.
func AllStandard() []Workload {
	return []Workload{WorkloadA, WorkloadB, WorkloadC, WorkloadD, WorkloadE, WorkloadF}
}

// Generator produces the operation stream for one workload run.
type Generator struct {
	wl  Workload
	rng *rand.Rand
	// recordCount is the current number of inserted records; keys are
	// 0..recordCount-1 and inserts append.
	recordCount int64
	zipf        *zipfian
}

// NewGenerator builds a generator over an initially loaded record count.
func NewGenerator(wl Workload, recordCount int64, seed int64) *Generator {
	g := &Generator{
		wl:          wl,
		rng:         rand.New(rand.NewSource(seed)),
		recordCount: recordCount,
	}
	if wl.Distribution == "zipfian" || wl.Distribution == "latest" {
		// YCSB sizes the zipfian over the expected final record count so
		// inserts do not disturb the distribution.
		expected := recordCount + int64(float64(recordCount)*wl.InsertProp)
		if expected < 1 {
			expected = 1
		}
		g.zipf = newZipfian(expected)
	}
	return g
}

// LoadOps returns the load-phase operation stream: one insert per record.
func LoadOps(recordCount int64) []Op {
	ops := make([]Op, recordCount)
	for i := int64(0); i < recordCount; i++ {
		ops[i] = Op{Kind: OpInsert, Key: i, Value: i * 31}
	}
	return ops
}

// Next generates the next operation.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	wl := g.wl
	switch {
	case r < wl.ReadProp:
		return Op{Kind: OpRead, Key: g.chooseKey()}
	case r < wl.ReadProp+wl.UpdateProp:
		return Op{Kind: OpUpdate, Key: g.chooseKey(), Value: g.rng.Int63n(1 << 20)}
	case r < wl.ReadProp+wl.UpdateProp+wl.InsertProp:
		key := g.recordCount
		g.recordCount++
		return Op{Kind: OpInsert, Key: key, Value: g.rng.Int63n(1 << 20)}
	case r < wl.ReadProp+wl.UpdateProp+wl.InsertProp+wl.ScanProp:
		max := wl.MaxScanLen
		if max < 1 {
			max = 1
		}
		return Op{Kind: OpScan, Key: g.chooseKey(), ScanLen: 1 + g.rng.Intn(max)}
	default:
		return Op{Kind: OpRMW, Key: g.chooseKey()}
	}
}

// Ops generates n operations.
func (g *Generator) Ops(n int) []Op {
	out := make([]Op, n)
	for i := range out {
		out[i] = g.Next()
	}
	return out
}

// chooseKey picks a key per the workload's request distribution.
func (g *Generator) chooseKey() int64 {
	n := g.recordCount
	if n <= 0 {
		return 0
	}
	switch g.wl.Distribution {
	case "zipfian":
		// Scrambled zipfian: zipf rank hashed over the keyspace so the
		// hot keys are spread out (YCSB's ScrambledZipfianGenerator).
		rank := g.zipf.next(g.rng, n)
		return int64(fnv64(uint64(rank)) % uint64(n))
	case "latest":
		// Hot keys are the most recently inserted (YCSB's
		// SkewedLatestGenerator): rank 0 is the newest record.
		rank := g.zipf.next(g.rng, n)
		return n - 1 - rank
	default: // uniform
		return g.rng.Int63n(n)
	}
}

// zipfian implements the Gray et al. incremental zipfian generator YCSB
// uses, with the standard constant 0.99. It supports a growing item count
// by recomputing zeta incrementally.
type zipfian struct {
	theta float64
	// items is the count zetaN currently covers.
	items int64
	zetaN float64
	// zeta2 is zeta(2, theta), alpha/eta derived per YCSB.
	zeta2 float64
}

const zipfConstant = 0.99

func newZipfian(items int64) *zipfian {
	z := &zipfian{theta: zipfConstant}
	z.zeta2 = zetaStatic(2, zipfConstant)
	z.items = items
	z.zetaN = zetaStatic(items, zipfConstant)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// next draws a rank in [0, n).
func (z *zipfian) next(rng *rand.Rand, n int64) int64 {
	if n > z.items {
		// Extend zeta incrementally for the grown keyspace.
		for i := z.items + 1; i <= n; i++ {
			z.zetaN += 1 / math.Pow(float64(i), z.theta)
		}
		z.items = n
	}
	alpha := 1 / (1 - z.theta)
	eta := (1 - math.Pow(2/float64(z.items), 1-z.theta)) / (1 - z.zeta2/z.zetaN)

	u := rng.Float64()
	uz := u * z.zetaN
	if uz < 1 {
		return 0
	}
	if uz < 1+math.Pow(0.5, z.theta) {
		return 1
	}
	rank := int64(float64(z.items) * math.Pow(eta*u-eta+1, alpha))
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// fnv64 is the FNV-1a hash YCSB scrambles zipfian ranks with.
func fnv64(v uint64) uint64 {
	const offset = 14695981039346656037
	const prime = 1099511628211
	h := uint64(offset)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= prime
	}
	return h
}
