package benchmark

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// TestQuickWorkloads runs every workload end to end and traced on its
// tiny input set: every answer must check, every listed end-to-end metric
// and every per-layer metric must be reported.
func TestQuickWorkloads(t *testing.T) {
	for _, w := range Workloads() {
		o := Options{Seed: 1, Quick: true, Setups: 1}
		e, err := RunE2E(w, o)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if e.Failed != 0 || e.Attempted == 0 {
			t.Fatalf("%s: %d of %d failed: %v", w.Name, e.Failed, e.Attempted, e.Errors)
		}
		line, err := ResultLine(e, nil)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		var doc struct {
			Correct bool
			Metrics map[string]struct{ Value float64 }
		}
		if err := json.Unmarshal(line, &doc); err != nil || !doc.Correct {
			t.Fatalf("%s: result line %s: %v", w.Name, line, err)
		}
		for name, m := range doc.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.Name, name, m.Value)
			}
		}
		l, err := RunTraced(w, o, e, time.Second)
		if err != nil {
			t.Fatalf("%s traced: %v", w.Name, err)
		}
		if len(l.Values) != len(PerLayer) {
			t.Fatalf("%s: %d per-layer values, want %d", w.Name, len(l.Values), len(PerLayer))
		}
		for i, v := range l.Values {
			if v.Name != PerLayer[i].Name || v.Unit != PerLayer[i].Unit {
				t.Errorf("%s: layer value %d is %s (%s), want %s (%s)", w.Name, i, v.Name, v.Unit, PerLayer[i].Name, PerLayer[i].Unit)
			}
		}
	}
}

// signature lists the first n requests of a stream: key and arguments.
func signature(t *testing.T, w *Workload, seed int64, n int) []string {
	t.Helper()
	st, err := w.build(seed, true)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	var out []string
	for i := 0; i < n; i++ {
		it, err := st.at(i)
		if err != nil {
			t.Fatalf("%s item %d: %v", w.Name, i, err)
		}
		out = append(out, fmt.Sprintf("%s%v", it.key, it.req.Args))
	}
	return out
}

func TestSeedDeterminesRequests(t *testing.T) {
	for _, w := range Workloads() {
		a, b, c := signature(t, w, 1, 40), signature(t, w, 1, 40), signature(t, w, 2, 40)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: seed 1 gave two different request streams", w.Name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: seeds 1 and 2 gave the same request stream", w.Name)
		}
	}
}

func TestTailPercentiles(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want string
	}{{1, "[50]"}, {99, "[50]"}, {100, "[50 90]"}, {999, "[50 90]"}, {1000, "[50 90 99]"}} {
		if got := fmt.Sprint(tailPercentiles(tc.n)); got != tc.want {
			t.Errorf("tailPercentiles(%d) = %s, want %s", tc.n, got, tc.want)
		}
	}
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for q, want := range map[float64]float64{0.5: 5, 0.9: 9, 0.95: 10, 0.01: 1} {
		if got := quantile(sorted, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
}

func ms(v float64) int64 { return int64(v * 1e6) }

func TestSelfTimesAndAttribution(t *testing.T) {
	spans := []span{
		{Name: "bench.request", Parent: -1, StartNS: 0, EndNS: ms(10)},
		{Name: "pmcheck.detect", Parent: 0, StartNS: ms(1), EndNS: ms(4)},
		{Name: "core.repair", Parent: 0, StartNS: ms(3), EndNS: ms(9)},
		{Name: "alias.analyze", Parent: 2, StartNS: ms(5), EndNS: ms(7)},
		{Name: "interp.exec", Parent: -1, Probe: true, StartNS: ms(10), EndNS: ms(12)},
	}
	// The root's children cover [1,9]: 8 of its 10 ms. core.repair loses
	// its child's 2 ms.
	want := []int64{ms(2), ms(3), ms(4), ms(2), ms(2)}
	if got := selfTimes(spans); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
	tr := &tracer{spans: spans, counts: map[string]float64{}}
	vals := map[string]float64{}
	for _, v := range layerValues(tr, 1, &E2E{LatMS: []float64{12}, Completed: 1}, nil) {
		vals[v.Name] = v.Value
	}
	near := func(name string, want float64) {
		if math.Abs(vals[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, vals[name], want)
		}
	}
	near("pmcheck.detect_ms", 3)
	near("core.repair_ms", 4)
	near("alias.analyze_ms", 2)
	near("interp.exec_ms", 2)
	// e2e mean 12 ms minus the pipeline spans' self time (3+4+2); the
	// probe and the root's own time are not attributed.
	near("bench.unattributed_ms", 3)
	near("bench.trace_overhead_pct", 100*(10.0-12)/12)
}

// fakeRunner answers with canned bodies in turn.
type fakeRunner struct {
	bodies []string
	n      int
}

func (f *fakeRunner) prepare(*item) error { return nil }
func (f *fakeRunner) close()              {}
func (f *fakeRunner) send(*item) ([]byte, bool, error) {
	b := f.bodies[f.n%len(f.bodies)]
	f.n++
	return []byte(b), false, nil
}

func TestCorruptResponseCounted(t *testing.T) {
	good := `{"mode":"repair","bugs_before":1,"sites_before":1,"bugs_after":0,"fixed":true,"crash":{"passed":true,"stats":{"images_built":3}}}`
	it := &item{key: "k", check: all(wantSites(1), wantRepaired)}
	st := &stream{at: func(int) (*item, error) { return it, nil }, warmup: 1, period: 1}
	bodies := []string{
		good,
		strings.Replace(good, `"images_built":3`, `"images_built":5`, 1), // stats only: equal
		strings.Replace(good, `"sites_before":1`, `"sites_before":2`, 1), // differs from the first
	}
	ph := drive(st, &fakeRunner{bodies: bodies}, newVerifier(), 1, 0, len(bodies), 0)
	for i, s := range ph.samples {
		if (s.err != nil) != (i == 2) {
			t.Errorf("response %d: err %v", i, s.err)
		}
	}
	e := &E2E{}
	e.add(ph, true)
	if e.Failed != 1 || e.Attempted != 3 || !math.IsInf(e.LatMS[2], 1) {
		t.Fatalf("failed %d of %d, latencies %v; want 1 of 3 with the failure infinitely slow", e.Failed, e.Attempted, e.LatMS)
	}
	// A first answer that contradicts the known answer fails too.
	bad := strings.Replace(good, `"fixed":true`, `"fixed":false`, 1)
	if _, err := newVerifier().verify(it, []byte(bad)); err == nil {
		t.Fatal("unfixed repair passed the known-answer check")
	}
}

func TestCompare(t *testing.T) {
	a := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(a))
		for i, x := range a {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		want   Verdict
	}{
		{"faster", a, scale(0.8), false, Improved},
		{"same", a, scale(1.0), false, NoChange},
		{"within bound", a, scale(1.05), false, NoChange},
		{"slower", a, scale(1.2), false, Regressed},
		{"more throughput", a, scale(1.2), true, Improved},
		{"less throughput", a, scale(0.8), true, Regressed},
		{"noisy parent", []float64{90, 110, 80, 120}, []float64{100, 100, 100, 100}, false, Unresolved},
		{"noisy parent, change better in every run", []float64{90, 110, 80, 120}, []float64{79, 79.5, 78, 79.9}, false, NoChange},
	} {
		if got := Compare(tc.a, tc.b, tc.higher, 0.10); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
	// Fewer than ten pairs never claim a gain.
	if got := Compare(a[:3], scale(0.8)[:3], false, 0.10); got != NoChange {
		t.Errorf("three faster pairs: %s, want %s", got, NoChange)
	}
	// Both metrics regress; only the gated one counts.
	run := func(mb float64) *Results {
		return &Results{Workloads: []*WorkloadResult{{Name: "w", E2E: []Value{
			{Name: "setup_s", Value: mb / 10}, {Name: "alloc_mb_per_req", Value: mb}}}}}
	}
	var sb strings.Builder
	if bad := CompareRuns(&sb, []*Results{run(10), run(10.1), run(9.9)}, []*Results{run(13), run(13.2), run(12.9)}); bad != 1 ||
		!strings.Contains(sb.String(), "gated regressed") || strings.Count(sb.String(), "regressed") != 2 {
		t.Fatalf("CompareRuns: %d bad, output %q", bad, sb.String())
	}
}

// TestBenchmarkFileAgrees pins BENCHMARK.json to the metric and workload
// tables.
func TestBenchmarkFileAgrees(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var doc struct {
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var ws []string
	for _, w := range Workloads() {
		ws = append(ws, w.Name+": "+w.Why)
	}
	var got []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	if fmt.Sprint(got) != fmt.Sprint(ws) {
		t.Errorf("workloads %v, want %v", got, ws)
	}
	var listed []string
	for _, m := range EndToEnd {
		if m.Gated && !m.Listed {
			t.Errorf("gated %s is not listed", m.Name)
		}
		if m.Listed {
			listed = append(listed, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
		}
	}
	got = nil
	for _, m := range doc.EndToEnd {
		if m.Bound == nil {
			t.Fatalf("end-to-end %s has no bound", m.Name)
		}
		got = append(got, fmt.Sprintf("%s %s %s %g", m.Name, m.Unit, m.Better, *m.Bound))
	}
	if fmt.Sprint(got) != fmt.Sprint(listed) {
		t.Errorf("end_to_end %v, want %v", got, listed)
	}
	var layers []string
	for _, m := range PerLayer {
		layers = append(layers, m.Name+" "+m.Unit+" "+m.Better)
	}
	got = nil
	for _, m := range doc.PerLayer {
		got = append(got, m.Name+" "+m.Unit+" "+m.Better)
	}
	if fmt.Sprint(got) != fmt.Sprint(layers) {
		t.Errorf("per_layer %v, want %v", got, layers)
	}
}
