package ycsb

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func countKinds(ops []Op) map[OpKind]int {
	m := map[OpKind]int{}
	for _, op := range ops {
		m[op.Kind]++
	}
	return m
}

func TestWorkloadProportions(t *testing.T) {
	const n = 20000
	cases := []struct {
		wl   Workload
		want map[OpKind]float64
	}{
		{WorkloadA, map[OpKind]float64{OpRead: 0.5, OpUpdate: 0.5}},
		{WorkloadB, map[OpKind]float64{OpRead: 0.95, OpUpdate: 0.05}},
		{WorkloadC, map[OpKind]float64{OpRead: 1.0}},
		{WorkloadD, map[OpKind]float64{OpRead: 0.95, OpInsert: 0.05}},
		{WorkloadE, map[OpKind]float64{OpScan: 0.95, OpInsert: 0.05}},
		{WorkloadF, map[OpKind]float64{OpRead: 0.5, OpRMW: 0.5}},
	}
	for _, c := range cases {
		t.Run(c.wl.Name, func(t *testing.T) {
			g := NewGenerator(c.wl, 1000, 42)
			counts := countKinds(g.Ops(n))
			total := 0
			for _, v := range counts {
				total += v
			}
			if total != n {
				t.Fatalf("total ops = %d", total)
			}
			for kind, want := range c.want {
				got := float64(counts[kind]) / n
				if math.Abs(got-want) > 0.02 {
					t.Errorf("%v proportion = %.3f, want %.2f", kind, got, want)
				}
			}
			for kind, cnt := range counts {
				if _, ok := c.want[kind]; !ok && cnt > 0 {
					t.Errorf("unexpected ops of kind %v: %d", kind, cnt)
				}
			}
		})
	}
}

func TestKeysInRange(t *testing.T) {
	for _, wl := range AllStandard() {
		g := NewGenerator(wl, 500, 7)
		for i := 0; i < 5000; i++ {
			op := g.Next()
			if op.Key < 0 || op.Key >= g.recordCount {
				t.Fatalf("%s: key %d outside [0,%d)", wl.Name, op.Key, g.recordCount)
			}
			if op.Kind == OpScan && (op.ScanLen < 1 || op.ScanLen > wl.MaxScanLen) {
				t.Fatalf("%s: scan length %d", wl.Name, op.ScanLen)
			}
		}
	}
}

func TestInsertsGrowKeyspace(t *testing.T) {
	g := NewGenerator(WorkloadD, 100, 9)
	before := g.recordCount
	inserts := 0
	for i := 0; i < 4000; i++ {
		if g.Next().Kind == OpInsert {
			inserts++
		}
	}
	if got := g.recordCount; got != before+int64(inserts) {
		t.Errorf("record count = %d, want %d", got, before+int64(inserts))
	}
	if inserts == 0 {
		t.Error("workload D produced no inserts")
	}
}

func TestZipfianIsSkewed(t *testing.T) {
	g := NewGenerator(WorkloadC, 1000, 3)
	freq := map[int64]int{}
	const n = 30000
	for i := 0; i < n; i++ {
		freq[g.Next().Key]++
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	// Uniform would give ~30 per key; zipfian-0.99's hottest key draws a
	// few percent of all requests.
	if max < 300 {
		t.Errorf("hottest key frequency = %d, want heavy skew (>300 of %d)", max, n)
	}
	if len(freq) < 100 {
		t.Errorf("only %d distinct keys drawn; zipfian tail missing", len(freq))
	}
}

func TestLatestFavorsNewestKeys(t *testing.T) {
	g := NewGenerator(WorkloadD, 1000, 11)
	newest := 0
	reads := 0
	for i := 0; i < 20000; i++ {
		op := g.Next()
		if op.Kind != OpRead {
			continue
		}
		reads++
		if op.Key >= g.recordCount-100 {
			newest++
		}
	}
	frac := float64(newest) / float64(reads)
	if frac < 0.3 {
		t.Errorf("only %.2f of reads hit the newest 10%% of keys; latest distribution broken", frac)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	a := NewGenerator(WorkloadA, 1000, 99).Ops(500)
	b := NewGenerator(WorkloadA, 1000, 99).Ops(500)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs between identically seeded generators", i)
		}
	}
	c := NewGenerator(WorkloadA, 1000, 100).Ops(500)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Error("different seeds produced identical streams")
	}
}

func TestLoadOps(t *testing.T) {
	ops := LoadOps(100)
	if len(ops) != 100 {
		t.Fatalf("load ops = %d", len(ops))
	}
	for i, op := range ops {
		if op.Kind != OpInsert || op.Key != int64(i) {
			t.Fatalf("load op %d = %+v", i, op)
		}
	}
}

func TestStandardLookup(t *testing.T) {
	var names []string
	for _, w := range AllStandard() {
		names = append(names, w.Name)
	}
	if got := strings.Join(names, ""); got != "ABCDEF" {
		t.Errorf("standard workloads = %q, want A–F in order", got)
	}
}

func TestZipfianRanksQuick(t *testing.T) {
	// Property: ranks are always within [0, n) even as n grows.
	z := newZipfian(10)
	g := NewGenerator(WorkloadC, 10, 5)
	f := func(growBy uint8) bool {
		n := int64(10 + int(growBy))
		r := z.next(g.rng, n)
		return r >= 0 && r < n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestOpKindStrings(t *testing.T) {
	for k := OpRead; k <= OpRMW; k++ {
		if s := k.String(); s == "" || s[0] == 'o' && s[1] == 'p' && s[2] == '(' {
			t.Errorf("missing name for kind %d", int(k))
		}
	}
}

func TestUniformDistribution(t *testing.T) {
	wl := Workload{Name: "U", ReadProp: 1.0, Distribution: "uniform"}
	g := NewGenerator(wl, 1000, 21)
	freq := map[int64]int{}
	const n = 20000
	for i := 0; i < n; i++ {
		freq[g.Next().Key]++
	}
	max := 0
	for _, c := range freq {
		if c > max {
			max = c
		}
	}
	// Uniform over 1000 keys: expected ~20 per key; the hottest key must
	// stay far below zipfian skew levels.
	if max > 60 {
		t.Errorf("hottest key frequency = %d; uniform chooser is skewed", max)
	}
	if len(freq) < 900 {
		t.Errorf("only %d distinct keys drawn from 1000", len(freq))
	}
}
