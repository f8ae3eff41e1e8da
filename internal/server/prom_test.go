package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
)

// goldenSnapshot is a fully-populated deterministic snapshot: every
// family the renderer can emit appears, so the golden file pins the whole
// exposition format. A change to the format must be deliberate —
// regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/server/ -run TestPromGolden
//
// and review the diff like an API change (dashboards scrape these names).
func goldenSnapshot() *promSnapshot {
	return &promSnapshot{
		Doc: &MetricsDoc{
			UptimeSeconds: 12.5,
			Workers:       2,
			Queue: QueueDoc{
				Depth: 3, Capacity: 64, InFlight: 1, Rejected: 4, Draining: false,
				Shards: []ShardDoc{
					{Shard: 0, Depth: 3, Capacity: 32, Saturation: 0.09375},
					{Shard: 1, Depth: 0, Capacity: 32, Saturation: 0},
				},
			},
			Jobs:   JobsDoc{Submitted: 10, Completed: 8, Failed: 1, Cached: 2},
			Flight: FlightDoc{Slow: 6, Failed: 1, Rejected: 4},
			Cache: CacheDoc{
				ResponseHits: 2, ResponseMisses: 8,
				ArtifactHits: 5, ArtifactMisses: 3,
				VerdictHits: 900, VerdictMisses: 100,
				SummaryHits: 40, SummaryMisses: 10,
				ConstraintHits: 60, ConstraintMisses: 15,
				HitRatio: 0.3888888888888889,
			},
			Phases: []PhaseLatencyDoc{
				{Name: "detect", Count: 8, P50NS: 1000, P99NS: 2000, MaxNS: 2100, SumNS: 9000},
				{Name: "job", Count: 8, P50NS: 50000, P99NS: 90000, MaxNS: 95000, SumNS: 420000},
			},
			Windows: []PhaseWindowDoc{
				{Phase: "job", Window: "1m", Count: 5, P50NS: 48000, P95NS: 80000, P99NS: 90000, MaxNS: 95000, SumNS: 260000},
				{Phase: "job", Window: "5m", Count: 8, P50NS: 50000, P95NS: 85000, P99NS: 90000, MaxNS: 95000, SumNS: 420000},
			},
			Counters: map[string]int64{
				"interp.steps":                    123456,
				"server.jobs.response_cache_hits": 2,
			},
			Gauges: map[string]int64{
				"server.job.last_latency_ns": 52000,
			},
		},
		PhaseAlloc: map[string]uint64{"detect": 4096, "trace": 65536},
		Runtime: &promRuntime{
			HeapAllocBytes:  1 << 20,
			HeapObjects:     5000,
			TotalAllocBytes: 1 << 24,
			GCCycles:        7,
			Goroutines:      12,
		},
	}
}

// TestPromGolden pins the exact exposition bytes for a fixed snapshot.
func TestPromGolden(t *testing.T) {
	got, err := renderProm(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	// Whatever the golden says, the output must satisfy our own linter.
	if err := obs.LintProm(got); err != nil {
		t.Fatalf("rendered exposition fails the linter: %v\n%s", err, got)
	}
	path := filepath.Join("testdata", "metrics.prom.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("exposition drifted from %s (UPDATE_GOLDEN=1 to accept)\ngot:\n%s", path, got)
	}
}

// TestPromLiveExposition lints a real server's exposition after real
// traffic and checks the families a dashboard would scrape are present.
func TestPromLiveExposition(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	for i := 0; i < 2; i++ {
		j, err := s.Submit(publishReq())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	prom, err := s.PromText()
	if err != nil {
		t.Fatal(err)
	}
	if err := obs.LintProm(prom); err != nil {
		t.Fatalf("live exposition fails the linter: %v\n%s", err, prom)
	}
	for _, want := range []string{
		`hippocratesd_jobs_total{event="completed"} 2`,
		`hippocratesd_queue_depth{shard="0"}`,
		`hippocratesd_queue_depth{shard="1"}`,
		`hippocratesd_cache_events_total{cache="response",result="hit"} 1`,
		`hippocratesd_phase_latency_ns{phase="job",window="1m",quantile="0.5"}`,
		`hippocratesd_phase_runs_total{phase="job"} 1`,
		`hippocratesd_pipeline_events_total{event="server.jobs.response_cache_hits"} 1`,
		`hippocratesd_pipeline_gauge{gauge="server.job.last_latency_ns"}`,
		"hippocratesd_go_goroutines",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("live exposition is missing %q", want)
		}
	}
}

// TestPromPhaseAllocs: with TrackAllocs (hippocratesd -track-allocs)
// every job's per-phase allocation bytes accumulate into
// hippocratesd_phase_alloc_bytes_total; without it the family is absent.
func TestPromPhaseAllocs(t *testing.T) {
	for _, track := range []bool{false, true} {
		s := New(Config{Workers: 1, TrackAllocs: track})
		j, err := s.Submit(publishReq())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
		prom, err := s.PromText()
		shutdown(t, s)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.LintProm(prom); err != nil {
			t.Fatalf("exposition fails the linter: %v\n%s", err, prom)
		}
		const family = `hippocratesd_phase_alloc_bytes_total{phase="trace"} `
		if got := strings.Contains(string(prom), family); got != track {
			t.Errorf("TrackAllocs=%v: exposition carries %q = %v", track, family, got)
		}
	}
}

// TestFlightRecorderRetention drives offer/recordReject directly: slow
// ranking, failed ring, rejected ring, and the lazy capture contract.
func TestFlightRecorderRetention(t *testing.T) {
	f := newFlightRecorder(2, 2, 2)
	capture := func() (json.RawMessage, []*obs.AuditEntry) {
		return []byte(`{"spans":[]}`), nil
	}
	mkJob := func(id, trace string) *Job {
		return &Job{ID: id, TraceID: trace, req: publishReq()}
	}

	// Three successes at 10/30/20ms into a 2-slot slow buffer: the 10ms
	// one must be evicted, order slowest-first.
	f.offer(mkJob("job-1", "t1"), 10, nil, capture)
	f.offer(mkJob("job-2", "t2"), 30, nil, capture)
	f.offer(mkJob("job-3", "t3"), 20, nil, capture)
	doc := f.doc()
	if len(doc.Slowest) != 2 || doc.Slowest[0].JobID != "job-2" || doc.Slowest[1].JobID != "job-3" {
		t.Fatalf("slow ranking wrong: %+v", doc.Slowest)
	}
	if doc.Slowest[0].Reason != "slow" || doc.Slowest[0].TraceID != "t2" {
		t.Errorf("retained entry malformed: %+v", doc.Slowest[0])
	}

	// A job too fast to rank must not pay the capture.
	called := false
	f.offer(mkJob("job-4", "t4"), 1, nil, func() (json.RawMessage, []*obs.AuditEntry) {
		called = true
		return []byte(`{"spans":[]}`), nil
	})
	if called {
		t.Error("capture ran for a job that was not retained")
	}

	// Failed jobs always capture, newest last, ring-bounded at 2.
	for _, id := range []string{"job-5", "job-6", "job-7"} {
		f.offer(mkJob(id, "t-"+id), 1, errors.New("boom"), capture)
	}
	doc = f.doc()
	if len(doc.Failed) != 2 || doc.Failed[0].JobID != "job-6" || doc.Failed[1].JobID != "job-7" {
		t.Errorf("failed ring wrong: %+v", doc.Failed)
	}
	if doc.Failed[0].Reason != "failed" || doc.Failed[0].Error != "boom" {
		t.Errorf("failed entry malformed: %+v", doc.Failed[0])
	}

	// Rejections ring-bound at 2, newest last.
	for i, trace := range []string{"r1", "r2", "r3"} {
		status := 429
		if i == 2 {
			status = 503
		}
		f.recordReject(trace, "p.pmc", "repair", status)
	}
	doc = f.doc()
	if len(doc.Rejected) != 2 || doc.Rejected[0].TraceID != "r2" || doc.Rejected[1].Status != 503 {
		t.Errorf("rejected ring wrong: %+v", doc.Rejected)
	}
}

// TestFlightRecorderSchema validates a live recorder document — with
// slow, failed, and rejected entries populated by real jobs — against the
// checked-in schema.
func TestFlightRecorderSchema(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	good, err := s.Submit(publishReq())
	if err != nil {
		t.Fatal(err)
	}
	bad, err := s.Submit(&cli.Request{Program: "broken.pmc", Source: "int main( {"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, good)
	waitDone(t, bad)
	s.flight.recordReject("trace-reject", "p.pmc", "repair", 429)

	data, err := json.MarshalIndent(s.flight.doc(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateFlightRecorder(data); err != nil {
		t.Fatalf("flight recorder violates schema: %v\n%s", err, data)
	}
	doc := s.flight.doc()
	if len(doc.Slowest) != 1 || len(doc.Failed) != 1 || len(doc.Rejected) != 1 {
		t.Fatalf("retained %d/%d/%d entries, want 1/1/1",
			len(doc.Slowest), len(doc.Failed), len(doc.Rejected))
	}
	// The retained slow entry must carry the job's real span tree.
	if !bytes.Contains(doc.Slowest[0].Spans, []byte(`"crashsim"`)) {
		t.Errorf("retained spans lack the crashsim phase: %.200s", doc.Slowest[0].Spans)
	}
	if len(doc.Slowest[0].Audit) == 0 {
		t.Error("retained slow entry carries no audit trail")
	}
}
