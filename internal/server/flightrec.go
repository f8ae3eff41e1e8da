package server

import (
	"encoding/json"
	"sync"
	"time"

	"hippocrates/internal/obs"
)

// The flight recorder is the daemon's post-hoc diagnosis buffer: a
// fixed-size in-memory record of the jobs most worth explaining after the
// fact — the N slowest, every failed job, and every backpressure/drain
// rejection — each retained with its full span tree and repair audit
// trail. Production PM failures are typically diagnosed from whatever
// telemetry survived the incident; this is the telemetry that survives.
// Served at GET /api/v1/debug/flightrecorder, schema-validated by
// schema/flightrecorder.schema.json.

// FlightEntry is one retained job: identity, outcome, and the complete
// per-job telemetry (span tree + audit trail) captured at completion.
type FlightEntry struct {
	JobID   string `json:"job_id"`
	TraceID string `json:"trace_id"`
	Program string `json:"program"`
	Mode    string `json:"mode"`
	// Reason is why the entry was retained: "slow" or "failed".
	Reason    string  `json:"reason"`
	Error     string  `json:"error,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	// UnixMS is the job's completion wall-clock time.
	UnixMS int64 `json:"unix_ms"`
	// Spans is the job's own span-tree document (the same shape
	// GET /api/v1/jobs/{id}/spans serves).
	Spans json.RawMessage `json:"spans"`
	// Audit is the job's repair-provenance trail.
	Audit []*obs.AuditEntry `json:"audit"`
}

// RejectEntry is one rejected submission (429 queue-full or 503 drain).
// There is no job — the queue never accepted one — so only the request's
// identity survives.
type RejectEntry struct {
	TraceID string `json:"trace_id"`
	Program string `json:"program"`
	Mode    string `json:"mode"`
	Status  int    `json:"status"`
	UnixMS  int64  `json:"unix_ms"`
}

// FlightRecorderDoc is the GET /api/v1/debug/flightrecorder body.
type FlightRecorderDoc struct {
	// Slowest holds the N slowest completed jobs, slowest first.
	Slowest []*FlightEntry `json:"slowest"`
	// Failed holds the most recent failed jobs, newest last.
	Failed []*FlightEntry `json:"failed"`
	// Rejected holds the most recent 429/503 rejections, newest last.
	Rejected []*RejectEntry `json:"rejected"`
}

// flightRecorder is the concurrent ring-buffer store behind the doc.
type flightRecorder struct {
	mu          sync.Mutex
	slowMax     int
	failedMax   int
	rejectedMax int
	slow        []*FlightEntry // sorted by LatencyMS descending
	failed      []*FlightEntry // ring, newest last
	rejected    []*RejectEntry // ring, newest last
}

// The daemon's flight recorder bounds: the slowest jobs kept with full
// span trees and audit trails, the most recent failed jobs, and the most
// recent 429/503 rejections.
const (
	flightSlow     = 16
	flightFailed   = 32
	flightRejected = 64
)

func newFlightRecorder(slowMax, failedMax, rejectedMax int) *flightRecorder {
	return &flightRecorder{slowMax: slowMax, failedMax: failedMax, rejectedMax: rejectedMax}
}

// offer decides whether a finished job is worth retaining — failed jobs
// always, successful ones when they rank among the slowest — and only
// then calls capture() to materialize the span tree and audit trail, so
// the fast majority of jobs never pay the serialization.
func (f *flightRecorder) offer(job *Job, latencyMS float64, jobErr error, capture func() (json.RawMessage, []*obs.AuditEntry)) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if jobErr == nil && len(f.slow) >= f.slowMax && latencyMS <= f.slow[len(f.slow)-1].LatencyMS {
		return
	}
	spans, audit := capture()
	if audit == nil {
		audit = []*obs.AuditEntry{}
	}
	e := &FlightEntry{
		JobID:     job.ID,
		TraceID:   job.TraceID,
		Program:   job.req.Program,
		Mode:      job.req.Mode,
		Reason:    "slow",
		LatencyMS: latencyMS,
		UnixMS:    time.Now().UnixMilli(),
		Spans:     spans,
		Audit:     audit,
	}
	if jobErr != nil {
		e.Reason = "failed"
		e.Error = jobErr.Error()
		f.failed = append(f.failed, e)
		if len(f.failed) > f.failedMax {
			f.failed = f.failed[1:]
		}
		return
	}
	// Insert into the sorted slow list, evicting the fastest retained.
	i := 0
	for i < len(f.slow) && f.slow[i].LatencyMS >= latencyMS {
		i++
	}
	f.slow = append(f.slow, nil)
	copy(f.slow[i+1:], f.slow[i:])
	f.slow[i] = e
	if len(f.slow) > f.slowMax {
		f.slow = f.slow[:f.slowMax]
	}
}

// recordReject retains a rejected submission's identity.
func (f *flightRecorder) recordReject(traceID, program, mode string, status int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rejected = append(f.rejected, &RejectEntry{
		TraceID: traceID,
		Program: program,
		Mode:    mode,
		Status:  status,
		UnixMS:  time.Now().UnixMilli(),
	})
	if len(f.rejected) > f.rejectedMax {
		f.rejected = f.rejected[1:]
	}
}

// doc snapshots the recorder's current contents.
func (f *flightRecorder) doc() *FlightRecorderDoc {
	f.mu.Lock()
	defer f.mu.Unlock()
	doc := &FlightRecorderDoc{
		Slowest:  append([]*FlightEntry{}, f.slow...),
		Failed:   append([]*FlightEntry{}, f.failed...),
		Rejected: append([]*RejectEntry{}, f.rejected...),
	}
	return doc
}

// counts reports the retained entry counts for the metrics gauges.
func (f *flightRecorder) counts() (slow, failed, rejected int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slow), len(f.failed), len(f.rejected)
}
