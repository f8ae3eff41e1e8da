package benchmark

import (
	"fmt"
	"io"
	"math"
)

// Verdict is the outcome of comparing one (metric, workload) pair between
// a parent's runs and a change's runs.
type Verdict string

// The verdicts.
const (
	Improved   Verdict = "improved"
	NoChange   Verdict = "no-change"
	Regressed  Verdict = "regressed"
	Unresolved Verdict = "unresolved"
)

// Compare judges a change's runs b against a parent's runs a, paired in
// order (a[i] ran next to b[i]):
//   - improved: over at least ten pairs, b wins at least nine tenths of
//     them (ties count for neither), and the medians differ in b's favour
//     by more than the distance between a's quartiles;
//   - unresolved: a's quartiles lie further apart than the bound, unless
//     every run of b beats every run of a;
//   - regressed: b's median is worse than a's by more than the bound (a
//     share of a's median);
//   - no-change otherwise.
func Compare(a, b []float64, higherBetter bool, bound float64) Verdict {
	better := func(x, y float64) bool {
		if higherBetter {
			return x > y
		}
		return x < y
	}
	pairs, wins := min(len(a), len(b)), 0
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1, ma, q3 := quartiles(a)
	mb := median(b)
	spread := q3 - q1
	if pairs >= 10 && float64(wins) >= 0.9*float64(pairs) && better(mb, ma) && math.Abs(mb-ma) > spread {
		return Improved
	}
	limit := bound * math.Abs(ma)
	if spread > limit && !allBetter(a, b, better) {
		return Unresolved
	}
	worse := mb - ma
	if higherBetter {
		worse = ma - mb
	}
	if worse > limit {
		return Regressed
	}
	return NoChange
}

func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range b {
		for _, y := range a {
			if !better(x, y) {
				return false
			}
		}
	}
	return len(a) > 0 && len(b) > 0
}

// CompareRuns compares every end-to-end (metric, workload) pair present in
// all runs of both sides and prints one line per pair, marking the gated
// metrics. It returns the number of gated pairs that regressed or stayed
// unresolved.
func CompareRuns(w io.Writer, a, b []*Results) int {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	bad := 0
	for _, wr := range a[0].Workloads {
		for _, m := range EndToEnd {
			av, ok1 := series(a, wr.Name, m.Name)
			bv, ok2 := series(b, wr.Name, m.Name)
			if !ok1 || !ok2 {
				continue
			}
			v := Compare(av, bv, m.Better == "higher", m.Bound)
			gated := ""
			if m.Gated {
				gated = "gated"
				if v == Regressed || v == Unresolved {
					bad++
				}
			}
			aq1, am, aq3 := quartiles(av)
			bq1, bm, bq3 := quartiles(bv)
			fmt.Fprintf(w, "%-13s %-23s %-5s %-10s A %.4g [%.4g, %.4g]  B %.4g [%.4g, %.4g] %s (bound %g, %d pairs)\n",
				wr.Name, m.Name, gated, v, am, aq1, aq3, bm, bq1, bq3, m.Unit, m.Bound, min(len(av), len(bv)))
		}
	}
	return bad
}

// series collects one metric of one workload across runs; ok is false
// unless every run reports it.
func series(runs []*Results, workload, metric string) ([]float64, bool) {
	var out []float64
	for _, r := range runs {
		found := false
		for _, wr := range r.Workloads {
			if wr.Name != workload {
				continue
			}
			for _, v := range wr.E2E {
				if v.Name == metric {
					out = append(out, v.Value)
					found = true
				}
			}
		}
		if !found {
			return nil, false
		}
	}
	return out, true
}
