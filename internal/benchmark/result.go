package benchmark

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
)

// Value is one measured metric.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the sample count behind the value.
	N int `json:"n"`
}

// withUnits fills each value's unit from the metric tables.
func withUnits(vals []Value) []Value {
	for i := range vals {
		if m, ok := metricByName(vals[i].Name); ok {
			vals[i].Unit = m.Unit
		}
	}
	return vals
}

// WorkloadResult is one workload's part of a results file.
type WorkloadResult struct {
	Name      string   `json:"name"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	E2E       []Value  `json:"e2e"`
	Layers    []Value  `json:"layers"`
}

// Results is a whole benchmark run, the file -compare reads.
type Results struct {
	Seed       int64             `json:"seed"`
	GoVersion  string            `json:"go_version"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	NumCPU     int               `json:"num_cpu"`
	Workloads  []*WorkloadResult `json:"workloads"`
}

// NewResults starts a results document for seed on this host.
func NewResults(seed int64) *Results {
	return &Results{Seed: seed, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU()}
}

// NewWorkloadResult builds a workload's result from its end-to-end and
// traced runs.
func NewWorkloadResult(e *E2E, l *Layers) *WorkloadResult {
	return &WorkloadResult{Name: e.Workload, Attempted: e.Attempted, Failed: e.Failed, Errors: e.Errors,
		E2E: e.Values(), Layers: l.Values}
}

// Print writes each value as "workload metric value unit (n=samples)".
func Print(w io.Writer, workload string, vals []Value) {
	for _, v := range vals {
		fmt.Fprintf(w, "%s %s %s %s (n=%d)\n", workload, v.Name, strconv.FormatFloat(v.Value, 'g', 6, 64), v.Unit, v.N)
	}
}

// Write saves the results as indented JSON.
func (r *Results) Write(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadResults loads a results file.
func ReadResults(path string) (*Results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// ResultLine is the one-line JSON result of a single-workload run: the
// end-to-end metrics BENCHMARK.json lists, or with trace every per-layer
// metric.
func ResultLine(e *E2E, l *Layers) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Attempted: max(e.Attempted, 1), Failed: e.Failed, Metrics: map[string]metric{}}
	out.Correct = e.Failed == 0
	if l != nil {
		for _, v := range l.Values {
			out.Metrics[v.Name] = metric{v.Value, v.Unit}
		}
	} else {
		vals := map[string]Value{}
		for _, v := range e.Values() {
			vals[v.Name] = v
		}
		for _, m := range EndToEnd {
			if !m.Listed {
				continue
			}
			v, ok := vals[m.Name]
			if !ok {
				return nil, fmt.Errorf("%s: no %s measured", e.Workload, m.Name)
			}
			out.Metrics[m.Name] = metric{v.Value, m.Unit}
		}
	}
	return json.Marshal(out)
}
