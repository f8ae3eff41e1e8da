package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// metricsDoc is the -metrics JSON shape; schema/metrics.schema.json is
// the checked-in contract `make metrics-smoke` validates against.
type metricsDoc struct {
	Counters     map[string]int64        `json:"counters"`
	Histograms   map[string]histogramDoc `json:"histograms"`
	OpcodesTop10 []opcodeDoc             `json:"opcodes_top10"`
	Phases       []phaseDoc              `json:"phases"`
	AuditEntries int                     `json:"audit_entries"`
}

type histogramDoc struct {
	Count   int64            `json:"count"`
	Sum     int64            `json:"sum"`
	Min     int64            `json:"min"`
	Max     int64            `json:"max"`
	Buckets map[string]int64 `json:"buckets"`
}

type opcodeDoc struct {
	Op    string `json:"op"`
	Count int64  `json:"count"`
}

type phaseDoc struct {
	Name       string `json:"name"`
	Spans      int    `json:"spans"`
	TotalNS    int64  `json:"total_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
}

// OpcodeCounterPrefix namespaces the interpreter's per-opcode execution
// counters; the metrics export derives its top-10 table from it.
const OpcodeCounterPrefix = "interp.op."

// MetricsJSON renders the counters, histograms, opcode top-10, phase
// totals, and audit-trail size as indented JSON.
func (r *Recorder) MetricsJSON() ([]byte, error) {
	doc := metricsDoc{
		Counters:     map[string]int64{},
		Histograms:   map[string]histogramDoc{},
		OpcodesTop10: []opcodeDoc{},
		Phases:       []phaseDoc{},
	}
	if r != nil {
		doc.Counters = r.Counters()
		for name, h := range r.Histograms() {
			hd := histogramDoc{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max, Buckets: map[string]int64{}}
			keys := make([]int, 0, len(h.Buckets))
			for k := range h.Buckets {
				keys = append(keys, k)
			}
			sort.Ints(keys)
			for _, k := range keys {
				hd.Buckets[fmt.Sprintf("le_%d", BucketBound(k))] = h.Buckets[k]
			}
			doc.Histograms[name] = hd
		}
		for _, nc := range r.TopCounters(OpcodeCounterPrefix, 10) {
			doc.OpcodesTop10 = append(doc.OpcodesTop10, opcodeDoc{Op: nc.Name, Count: nc.Count})
		}
		for _, pt := range r.PhaseTotals() {
			doc.Phases = append(doc.Phases, phaseDoc{
				Name: pt.Name, Spans: pt.Spans, TotalNS: pt.Total.Nanoseconds(), AllocBytes: pt.Alloc,
			})
		}
		doc.AuditEntries = r.AuditLen()
	}
	return json.MarshalIndent(doc, "", "  ")
}

// spansDoc is the plain-JSON span export (ids, parents, wall times).
type spansDoc struct {
	Spans []spanDoc `json:"spans"`
}

type spanDoc struct {
	ID         int               `json:"id"`
	Parent     int               `json:"parent"`
	Name       string            `json:"name"`
	StartNS    int64             `json:"start_ns"`
	DurNS      int64             `json:"dur_ns"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	AllocBytes uint64            `json:"alloc_bytes,omitempty"`
}

// SpansJSON renders the span list as plain JSON (ids and parent links).
func (r *Recorder) SpansJSON() ([]byte, error) {
	doc := spansDoc{Spans: []spanDoc{}}
	for _, s := range r.Spans() {
		doc.Spans = append(doc.Spans, spanDoc{
			ID: s.ID, Parent: s.Parent, Name: s.Name,
			StartNS: s.Begin.Nanoseconds(), DurNS: s.Dur.Nanoseconds(),
			Attrs: s.Attrs, AllocBytes: s.AllocBytes,
		})
	}
	return json.MarshalIndent(doc, "", "  ")
}

// chromeTraceDoc is the self-contained Chrome trace_event file the -spans
// flag emits: load it in chrome://tracing or https://ui.perfetto.dev.
// Every span becomes a complete ("X") event; each span tree gets its own
// thread lane (tid = the tree's root span id) so concurrent pipelines
// render side by side and children nest inside their parents.
type chromeTraceDoc struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
}

type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   float64           `json:"ts"`
	Dur  float64           `json:"dur"`
	PID  int               `json:"pid"`
	TID  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// ChromeTraceJSON renders the spans in Chrome trace_event format.
func (r *Recorder) ChromeTraceJSON() ([]byte, error) {
	spans := r.Spans()
	// Resolve each span's tree root for lane assignment.
	rootOf := make([]int, len(spans))
	for _, s := range spans {
		if s.Parent < 0 {
			rootOf[s.ID] = s.ID
		} else {
			rootOf[s.ID] = rootOf[s.Parent]
		}
	}
	doc := chromeTraceDoc{DisplayTimeUnit: "ms", TraceEvents: []chromeEvent{}}
	for _, s := range spans {
		doc.TraceEvents = append(doc.TraceEvents, chromeEvent{
			Name: s.Name,
			Ph:   "X",
			TS:   float64(s.Begin.Nanoseconds()) / 1e3,
			Dur:  float64(s.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  rootOf[s.ID],
			Args: s.Attrs,
		})
	}
	return json.MarshalIndent(doc, "", " ")
}

// WriteMetricsFile writes the metrics JSON to path.
func (r *Recorder) WriteMetricsFile(path string) error {
	data, err := r.MetricsJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// WriteChromeTraceFile writes the Chrome trace_event JSON to path.
func (r *Recorder) WriteChromeTraceFile(path string) error {
	data, err := r.ChromeTraceJSON()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
