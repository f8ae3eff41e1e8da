package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"hippocrates/internal/obs"
)

// PromContentType is the Prometheus text exposition content type GET
// /metrics serves.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// MetricsDoc is the /metrics.json shape; schema/metrics.schema.json is
// the checked-in contract the server smoke test validates against.
// (Scrapers get the same state in Prometheus text form at /metrics.)
type MetricsDoc struct {
	UptimeSeconds float64  `json:"uptime_seconds"`
	Workers       int      `json:"workers"`
	Queue         QueueDoc `json:"queue"`
	Jobs          JobsDoc  `json:"jobs"`
	Cache         CacheDoc `json:"cache"`
	// Flight reports the flight recorder's retained entry counts.
	Flight FlightDoc `json:"flight"`
	// Phases carries a since-boot latency histogram per pipeline phase
	// plus the whole-job "job" row, sorted by name.
	Phases []PhaseLatencyDoc `json:"phases"`
	// Windows carries the rolling per-phase latency quantiles over the
	// trailing 1m/5m windows — the scrape-friendly signals that decay
	// when traffic stops, unlike the since-boot Phases rows.
	Windows []PhaseWindowDoc `json:"windows"`
	// Counters is the merged counter space of every finished job
	// (interp steps, trace events, fixes by mechanism, crashsim work...).
	Counters map[string]int64 `json:"counters"`
	// Gauges is the merged gauge space (levels, last-write-wins).
	Gauges map[string]int64 `json:"gauges"`
}

// QueueDoc describes the worker pool's current load.
type QueueDoc struct {
	Depth    int   `json:"depth"`
	Capacity int   `json:"capacity"`
	InFlight int64 `json:"in_flight"`
	Rejected int64 `json:"rejected"`
	Draining bool  `json:"draining"`
	// Shards is the per-worker queue state, index-aligned with the pool;
	// saturation is depth/capacity, the signal the fleet router shards on.
	Shards []ShardDoc `json:"shards"`
}

// ShardDoc is one worker shard's queue state.
type ShardDoc struct {
	Shard      int     `json:"shard"`
	Depth      int     `json:"depth"`
	Capacity   int     `json:"capacity"`
	Saturation float64 `json:"saturation"`
}

// JobsDoc counts job outcomes since boot.
type JobsDoc struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Cached    int64 `json:"cached"`
}

// CacheDoc reports the content-addressed caches. HitRatio is
// response+artifact hits over response+artifact lookups (the service-level
// ratio; verdict- and summary-store traffic is reported separately because
// one job makes per-image or per-function lookups by the hundreds and
// would drown the job-level signal).
type CacheDoc struct {
	ResponseHits   int64 `json:"response_hits"`
	ResponseMisses int64 `json:"response_misses"`
	ArtifactHits   int64 `json:"artifact_hits"`
	ArtifactMisses int64 `json:"artifact_misses"`
	VerdictHits    int64 `json:"verdict_hits"`
	VerdictMisses  int64 `json:"verdict_misses"`
	// Summary*/Constraint* count the incremental-analysis store's traffic:
	// per-function static summaries and alias constraint lists replayed
	// (hit) versus recomputed (miss) across all static jobs since boot.
	SummaryHits      int64   `json:"summary_hits"`
	SummaryMisses    int64   `json:"summary_misses"`
	ConstraintHits   int64   `json:"constraint_hits"`
	ConstraintMisses int64   `json:"constraint_misses"`
	HitRatio         float64 `json:"hit_ratio"`
}

// FlightDoc reports the flight recorder's retained entry counts.
type FlightDoc struct {
	Slow     int `json:"slow"`
	Failed   int `json:"failed"`
	Rejected int `json:"rejected"`
}

// PhaseLatencyDoc is one phase's since-boot latency distribution.
type PhaseLatencyDoc struct {
	Name  string `json:"name"`
	Count int64  `json:"count"`
	P50NS int64  `json:"p50_ns"`
	P99NS int64  `json:"p99_ns"`
	MaxNS int64  `json:"max_ns"`
	SumNS int64  `json:"sum_ns"`
}

// PhaseWindowDoc is one phase's latency distribution over one trailing
// window ("1m" or "5m").
type PhaseWindowDoc struct {
	Phase  string `json:"phase"`
	Window string `json:"window"`
	Count  int64  `json:"count"`
	P50NS  int64  `json:"p50_ns"`
	P95NS  int64  `json:"p95_ns"`
	P99NS  int64  `json:"p99_ns"`
	MaxNS  int64  `json:"max_ns"`
	SumNS  int64  `json:"sum_ns"`
}

// shardDocs snapshots the per-shard queue state.
func (s *Server) shardDocs() []ShardDoc {
	depths := s.ShardDepths()
	out := make([]ShardDoc, len(depths))
	for i, d := range depths {
		out[i] = ShardDoc{
			Shard:      i,
			Depth:      d,
			Capacity:   s.cfg.QueueDepth,
			Saturation: float64(d) / float64(s.cfg.QueueDepth),
		}
	}
	return out
}

// Metrics snapshots the service's aggregate state.
func (s *Server) Metrics() *MetricsDoc {
	fSlow, fFailed, fRejected := s.flight.counts()
	doc := &MetricsDoc{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Workers:       len(s.shards),
		Queue: QueueDoc{
			Depth:    s.QueueDepth(),
			Capacity: len(s.shards) * s.cfg.QueueDepth,
			InFlight: s.inFlight.Load(),
			Rejected: s.rejected.Load(),
			Draining: s.draining.Load(),
			Shards:   s.shardDocs(),
		},
		Jobs: JobsDoc{
			Submitted: s.submitted.Load(),
			Completed: s.completed.Load(),
			Failed:    s.failed.Load(),
			Cached:    s.cached.Load(),
		},
		Flight:   FlightDoc{Slow: fSlow, Failed: fFailed, Rejected: fRejected},
		Phases:   []PhaseLatencyDoc{},
		Windows:  s.windowSnapshots(),
		Counters: s.rec.Counters(),
		Gauges:   s.rec.Gauges(),
	}
	if doc.Windows == nil {
		doc.Windows = []PhaseWindowDoc{}
	}
	rh, rm := s.responses.Stats()
	ah, am := s.artifacts.Stats()
	ss := s.summaries.Stats()
	doc.Cache = CacheDoc{
		ResponseHits: rh, ResponseMisses: rm,
		ArtifactHits: ah, ArtifactMisses: am,
		VerdictHits: s.verdictHits.Load(), VerdictMisses: s.verdictMisses.Load(),
		SummaryHits: ss.SummaryHits, SummaryMisses: ss.SummaryMisses,
		ConstraintHits: ss.ConsHits, ConstraintMisses: ss.ConsMisses,
	}
	if lookups := rh + rm + ah + am; lookups > 0 {
		doc.Cache.HitRatio = float64(rh+ah) / float64(lookups)
	}
	// Histograms() returns a deep copy sorted here by name for a stable
	// document. "server.job.ns" renders as phase "job".
	names := []string{}
	hists := s.rec.Histograms()
	for name := range hists {
		if strings.HasPrefix(name, "server.phase.") || name == "server.job.ns" {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		h := hists[name]
		phase := strings.TrimSuffix(strings.TrimPrefix(name, "server.phase."), ".ns")
		if name == "server.job.ns" {
			phase = "job"
		}
		doc.Phases = append(doc.Phases, PhaseLatencyDoc{
			Name:  phase,
			Count: h.Count,
			P50NS: h.Quantile(0.50),
			P99NS: h.Quantile(0.99),
			MaxNS: h.Max,
			SumNS: h.Sum,
		})
	}
	return doc
}

// MetricsJSON renders the snapshot as indented JSON (GET /metrics.json).
func (s *Server) MetricsJSON() ([]byte, error) {
	data, err := json.MarshalIndent(s.Metrics(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// promRuntime is the Go runtime slice of a Prometheus snapshot.
type promRuntime struct {
	HeapAllocBytes  uint64
	HeapObjects     uint64
	TotalAllocBytes uint64
	GCCycles        uint32
	Goroutines      int
}

// promSnapshot is everything the Prometheus exposition renders, captured
// as plain values so the renderer is a pure (and golden-testable)
// function of the snapshot.
type promSnapshot struct {
	Doc        *MetricsDoc
	PhaseAlloc map[string]uint64
	Runtime    *promRuntime
}

// PromText renders the service state as a Prometheus text exposition
// (GET /metrics, content type PromContentType).
func (s *Server) PromText() ([]byte, error) {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return renderProm(&promSnapshot{
		Doc:        s.Metrics(),
		PhaseAlloc: s.phaseAllocs(),
		Runtime: &promRuntime{
			HeapAllocBytes:  ms.HeapAlloc,
			HeapObjects:     ms.HeapObjects,
			TotalAllocBytes: ms.TotalAlloc,
			GCCycles:        ms.NumGC,
			Goroutines:      runtime.NumGoroutine(),
		},
	})
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// renderProm turns a snapshot into the exposition. Every sample set
// derived from a map is sorted, so equal snapshots render byte-identical
// output — pinned by the golden test in prom_test.go.
func renderProm(snap *promSnapshot) ([]byte, error) {
	d := snap.Doc
	fams := []obs.PromFamily{
		{Name: "hippocratesd_uptime_seconds", Help: "Seconds since the daemon booted.", Type: "gauge",
			Samples: []obs.PromSample{{Value: d.UptimeSeconds}}},
		{Name: "hippocratesd_workers", Help: "Worker pool size (one queue shard per worker).", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(d.Workers)}}},
		{Name: "hippocratesd_draining", Help: "1 while the daemon drains for shutdown, else 0.", Type: "gauge",
			Samples: []obs.PromSample{{Value: boolGauge(d.Queue.Draining)}}},
		{Name: "hippocratesd_jobs_in_flight", Help: "Jobs currently executing.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(d.Queue.InFlight)}}},
		{Name: "hippocratesd_jobs_total", Help: "Job lifecycle events since boot, by event.", Type: "counter",
			Samples: []obs.PromSample{
				{Labels: []obs.PromLabel{{Name: "event", Value: "cached"}}, Value: float64(d.Jobs.Cached)},
				{Labels: []obs.PromLabel{{Name: "event", Value: "completed"}}, Value: float64(d.Jobs.Completed)},
				{Labels: []obs.PromLabel{{Name: "event", Value: "failed"}}, Value: float64(d.Jobs.Failed)},
				{Labels: []obs.PromLabel{{Name: "event", Value: "rejected"}}, Value: float64(d.Queue.Rejected)},
				{Labels: []obs.PromLabel{{Name: "event", Value: "submitted"}}, Value: float64(d.Jobs.Submitted)},
			}},
	}

	depth := obs.PromFamily{Name: "hippocratesd_queue_depth", Help: "Queued (not yet running) jobs per worker shard.", Type: "gauge"}
	capacity := obs.PromFamily{Name: "hippocratesd_queue_capacity", Help: "Queue slots per worker shard.", Type: "gauge"}
	saturation := obs.PromFamily{Name: "hippocratesd_queue_saturation", Help: "Per-shard queue fill fraction (depth/capacity).", Type: "gauge"}
	for _, sh := range d.Queue.Shards {
		label := []obs.PromLabel{{Name: "shard", Value: strconv.Itoa(sh.Shard)}}
		depth.Samples = append(depth.Samples, obs.PromSample{Labels: label, Value: float64(sh.Depth)})
		capacity.Samples = append(capacity.Samples, obs.PromSample{Labels: label, Value: float64(sh.Capacity)})
		saturation.Samples = append(saturation.Samples, obs.PromSample{Labels: label, Value: sh.Saturation})
	}
	fams = append(fams, depth, capacity, saturation)

	cache := obs.PromFamily{Name: "hippocratesd_cache_events_total", Help: "Content-addressed cache lookups by cache and result.", Type: "counter",
		Samples: []obs.PromSample{
			{Labels: cacheLabels("artifact", "hit"), Value: float64(d.Cache.ArtifactHits)},
			{Labels: cacheLabels("artifact", "miss"), Value: float64(d.Cache.ArtifactMisses)},
			{Labels: cacheLabels("constraint", "hit"), Value: float64(d.Cache.ConstraintHits)},
			{Labels: cacheLabels("constraint", "miss"), Value: float64(d.Cache.ConstraintMisses)},
			{Labels: cacheLabels("response", "hit"), Value: float64(d.Cache.ResponseHits)},
			{Labels: cacheLabels("response", "miss"), Value: float64(d.Cache.ResponseMisses)},
			{Labels: cacheLabels("summary", "hit"), Value: float64(d.Cache.SummaryHits)},
			{Labels: cacheLabels("summary", "miss"), Value: float64(d.Cache.SummaryMisses)},
			{Labels: cacheLabels("verdict", "hit"), Value: float64(d.Cache.VerdictHits)},
			{Labels: cacheLabels("verdict", "miss"), Value: float64(d.Cache.VerdictMisses)},
		}}
	flight := obs.PromFamily{Name: "hippocratesd_flightrecorder_entries", Help: "Flight-recorder entries retained, by reason.", Type: "gauge",
		Samples: []obs.PromSample{
			{Labels: []obs.PromLabel{{Name: "reason", Value: "failed"}}, Value: float64(d.Flight.Failed)},
			{Labels: []obs.PromLabel{{Name: "reason", Value: "rejected"}}, Value: float64(d.Flight.Rejected)},
			{Labels: []obs.PromLabel{{Name: "reason", Value: "slow"}}, Value: float64(d.Flight.Slow)},
		}}
	fams = append(fams, cache, flight)

	// Rolling windows: quantiles, counts, and sums per (phase, window).
	quant := obs.PromFamily{Name: "hippocratesd_phase_latency_ns", Help: "Phase latency quantiles over the trailing window.", Type: "gauge"}
	wcount := obs.PromFamily{Name: "hippocratesd_phase_latency_window_count", Help: "Phase latency samples inside the trailing window.", Type: "gauge"}
	wsum := obs.PromFamily{Name: "hippocratesd_phase_latency_window_sum_ns", Help: "Summed phase latency inside the trailing window.", Type: "gauge"}
	for _, w := range d.Windows {
		base := []obs.PromLabel{{Name: "phase", Value: w.Phase}, {Name: "window", Value: w.Window}}
		for _, q := range []struct {
			q string
			v int64
		}{{"0.5", w.P50NS}, {"0.95", w.P95NS}, {"0.99", w.P99NS}} {
			quant.Samples = append(quant.Samples, obs.PromSample{
				Labels: append(append([]obs.PromLabel{}, base...), obs.PromLabel{Name: "quantile", Value: q.q}),
				Value:  float64(q.v),
			})
		}
		wcount.Samples = append(wcount.Samples, obs.PromSample{Labels: base, Value: float64(w.Count)})
		wsum.Samples = append(wsum.Samples, obs.PromSample{Labels: base, Value: float64(w.SumNS)})
	}
	fams = append(fams, quant, wcount, wsum)

	// Since-boot per-phase totals.
	pcount := obs.PromFamily{Name: "hippocratesd_phase_runs_total", Help: "Phase executions since boot.", Type: "counter"}
	psum := obs.PromFamily{Name: "hippocratesd_phase_ns_total", Help: "Summed phase wall time since boot.", Type: "counter"}
	for _, p := range d.Phases {
		label := []obs.PromLabel{{Name: "phase", Value: p.Name}}
		pcount.Samples = append(pcount.Samples, obs.PromSample{Labels: label, Value: float64(p.Count)})
		psum.Samples = append(psum.Samples, obs.PromSample{Labels: label, Value: float64(p.SumNS)})
	}
	fams = append(fams, pcount, psum)

	// Per-phase allocation totals (present when TrackAllocs is on).
	if len(snap.PhaseAlloc) > 0 {
		alloc := obs.PromFamily{Name: "hippocratesd_phase_alloc_bytes_total", Help: "Bytes allocated inside each phase's spans since boot (TrackAllocs).", Type: "counter"}
		for _, phase := range sortedKeys(snap.PhaseAlloc) {
			alloc.Samples = append(alloc.Samples, obs.PromSample{
				Labels: []obs.PromLabel{{Name: "phase", Value: phase}},
				Value:  float64(snap.PhaseAlloc[phase]),
			})
		}
		fams = append(fams, alloc)
	}

	// The merged pipeline counter/gauge spaces, one family each with the
	// original dotted name as a label (sanitizing every counter into its
	// own family would make thousands of HELP/TYPE lines).
	events := obs.PromFamily{Name: "hippocratesd_pipeline_events_total", Help: "Merged pipeline counters over all finished jobs, by event name.", Type: "counter"}
	for _, k := range sortedKeysI64(d.Counters) {
		events.Samples = append(events.Samples, obs.PromSample{
			Labels: []obs.PromLabel{{Name: "event", Value: k}},
			Value:  float64(d.Counters[k]),
		})
	}
	fams = append(fams, events)
	if len(d.Gauges) > 0 {
		gauges := obs.PromFamily{Name: "hippocratesd_pipeline_gauge", Help: "Merged pipeline gauges (last-write-wins levels), by gauge name.", Type: "gauge"}
		for _, k := range sortedKeysI64(d.Gauges) {
			gauges.Samples = append(gauges.Samples, obs.PromSample{
				Labels: []obs.PromLabel{{Name: "gauge", Value: k}},
				Value:  float64(d.Gauges[k]),
			})
		}
		fams = append(fams, gauges)
	}

	if rt := snap.Runtime; rt != nil {
		fams = append(fams,
			obs.PromFamily{Name: "hippocratesd_go_goroutines", Help: "Live goroutines.", Type: "gauge",
				Samples: []obs.PromSample{{Value: float64(rt.Goroutines)}}},
			obs.PromFamily{Name: "hippocratesd_go_heap_alloc_bytes", Help: "Bytes of allocated heap objects.", Type: "gauge",
				Samples: []obs.PromSample{{Value: float64(rt.HeapAllocBytes)}}},
			obs.PromFamily{Name: "hippocratesd_go_heap_objects", Help: "Allocated heap objects.", Type: "gauge",
				Samples: []obs.PromSample{{Value: float64(rt.HeapObjects)}}},
			obs.PromFamily{Name: "hippocratesd_go_alloc_bytes_total", Help: "Cumulative bytes allocated since boot.", Type: "counter",
				Samples: []obs.PromSample{{Value: float64(rt.TotalAllocBytes)}}},
			obs.PromFamily{Name: "hippocratesd_go_gc_cycles_total", Help: "Completed GC cycles.", Type: "counter",
				Samples: []obs.PromSample{{Value: float64(rt.GCCycles)}}},
		)
	}

	var buf bytes.Buffer
	if err := obs.WriteProm(&buf, fams); err != nil {
		return nil, fmt.Errorf("render /metrics: %w", err)
	}
	return buf.Bytes(), nil
}

func cacheLabels(cache, result string) []obs.PromLabel {
	return []obs.PromLabel{{Name: "cache", Value: cache}, {Name: "result", Value: result}}
}

func sortedKeys(m map[string]uint64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysI64(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
