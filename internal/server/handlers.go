package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/interp"
)

// MaxRequestBytes bounds the request body (a pmc program plus options).
const MaxRequestBytes = 4 << 20

// ReadHeaderTimeout and ReadTimeout bound how long a connection may take
// to deliver a request's header and its whole request. A body is read
// into a buffer of its declared length, so without them a client that
// declares MaxRequestBytes and sends nothing would hold that buffer for
// as long as it kept the connection open. An idle keep-alive connection
// is closed after ReadTimeout too. Once a body is read, net/http clears
// the read deadline, so a job that outlasts ReadTimeout still answers.
// There is no write timeout: a synchronous repair answers when its job
// ends, under the job's own deadline.
const (
	ReadHeaderTimeout = 10 * time.Second
	ReadTimeout       = 30 * time.Second
)

// HTTPServer returns the http.Server that serves s.Handler() on addr
// under the read timeouts above.
func (s *Server) HTTPServer(addr string) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           s.Handler(),
		ReadHeaderTimeout: ReadHeaderTimeout,
		ReadTimeout:       ReadTimeout,
	}
}

// Handler returns the daemon's HTTP API:
//
//	POST /api/v1/repair       submit and wait; the cli.Response JSON
//	POST /api/v1/jobs         submit asynchronously; 202 + {"job_id"}
//	GET  /api/v1/jobs/{id}       job status (+ response when done)
//	GET  /api/v1/jobs/{id}/spans the job's own span tree
//	GET  /api/v1/debug/flightrecorder  slowest/failed/rejected jobs
//	GET  /metrics             Prometheus text exposition (0.0.4), the
//	                          daemon's one view of its aggregate state
//	GET  /healthz             liveness + drain state + shard depths
//
// Every submit answers with X-Hippocrates-Job (the job ID),
// X-Hippocrates-Cache (hit/miss against the response cache), and
// X-Trace-Id (echoing the inbound X-Trace-Id / W3C traceparent trace-id,
// or a generated one). A full queue is 429 with Retry-After; a draining
// daemon is 503 with Retry-After.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/repair", s.handleRepair)
	mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /api/v1/jobs/{id}/spans", s.handleJobSpans)
	mux.HandleFunc("GET /api/v1/debug/flightrecorder", s.handleFlightRecorder)
	mux.HandleFunc("GET /metrics", s.handlePromMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// errorDoc is the JSON body of every non-2xx answer. Kind is set for
// typed failures a client can act on programmatically: "deadline" (the
// job exceeded its wall-clock budget — HTTP 504; retrying the identical
// request will time out identically) and "steplimit" (the instruction
// budget — same determinism argument).
type errorDoc struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorDoc{Error: fmt.Sprintf(format, args...)})
}

// RetryAfterMin / RetryAfterMax bound the jittered Retry-After seconds
// every backpressure answer carries (429 full shard, 503 draining, and
// the draining /healthz — all three stay consistent). A constant value
// would re-synchronize every rejected client onto the same instant and
// re-stampede a recovering shard; jitter spreads the retry wave.
const (
	RetryAfterMin = 1
	RetryAfterMax = 3
)

// setRetryAfter stamps the jittered Retry-After header.
func setRetryAfter(h http.Header) {
	h.Set("Retry-After", strconv.Itoa(RetryAfterMin+rand.IntN(RetryAfterMax-RetryAfterMin+1)))
}

// decodeAndSubmit parses the request body and enqueues it under the
// request's trace ID, mapping submission failures onto status codes. A
// nil job means the response was already written. The trace ID is echoed
// on every outcome — accepted or rejected — so clients can correlate 429s
// too.
func (s *Server) decodeAndSubmit(w http.ResponseWriter, r *http.Request) *Job {
	traceID := TraceFromRequest(r)
	if traceID == "" {
		traceID = NewTraceID()
	}
	w.Header().Set(TraceHeader, traceID)
	var req cli.Request
	if err := readRequest(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return nil
	}
	job, err := s.SubmitTraced(&req, traceID)
	switch {
	case errors.Is(err, ErrQueueFull):
		setRetryAfter(w.Header())
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return nil
	case errors.Is(err, ErrDraining):
		setRetryAfter(w.Header())
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return nil
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return nil
	}
	w.Header().Set("X-Hippocrates-Job", job.ID)
	if job.CacheHit() {
		w.Header().Set("X-Hippocrates-Cache", "hit")
	} else {
		w.Header().Set("X-Hippocrates-Cache", "miss")
	}
	return job
}

// handleRepair is the synchronous path: submit, wait, answer with the
// pipeline's deterministic response document. The trace ID stays in the
// X-Trace-Id header, never the body — the body must stay byte-identical
// across retries for the response cache.
func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	job := s.decodeAndSubmit(w, r)
	if job == nil {
		return
	}
	select {
	case <-job.Done():
	case <-r.Context().Done():
		// The client went away; the job keeps running (its result is
		// cached for a retry).
		return
	}
	if err := job.Err(); err != nil {
		writeJobError(w, job.ID, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(job.ResponseJSON())
}

// writeJobError maps a failed job onto its status code: a wall-clock
// deadline expiry is the server-enforced per-job budget (the request's
// timeout_ms, else -timeout, capped by -max-timeout), answered 504 with
// a typed error doc so clients can tell "this job is too slow by policy"
// from "this job is broken" (422). Both limit kinds are deterministic for
// a given request, so a client that retries the identical request gets
// the identical failure; neither carries Retry-After.
func writeJobError(w http.ResponseWriter, jobID string, err error) {
	var le *interp.LimitError
	if errors.As(err, &le) {
		doc := errorDoc{Error: fmt.Sprintf("job %s: %v", jobID, err)}
		status := http.StatusUnprocessableEntity
		switch le.Resource {
		case "deadline":
			doc.Kind = "deadline"
			status = http.StatusGatewayTimeout
		case "steps":
			doc.Kind = "steplimit"
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(doc)
		return
	}
	writeError(w, http.StatusUnprocessableEntity, "job %s: %v", jobID, err)
}

// handleSubmit is the asynchronous path: 202 + the job ID to poll.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job := s.decodeAndSubmit(w, r)
	if job == nil {
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(struct {
		JobID   string `json:"job_id"`
		State   string `json:"state"`
		TraceID string `json:"trace_id"`
	}{job.ID, job.State(), job.TraceID})
}

// jobDoc is the GET /api/v1/jobs/{id} body.
type jobDoc struct {
	JobID    string          `json:"job_id"`
	TraceID  string          `json:"trace_id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	doc := jobDoc{JobID: job.ID, TraceID: job.TraceID, State: job.State(), CacheHit: job.CacheHit()}
	if err := job.Err(); err != nil {
		doc.Error = err.Error()
	}
	doc.Response = job.ResponseJSON()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, job.TraceID)
	json.NewEncoder(w).Encode(doc)
}

func (s *Server) handleJobSpans(w http.ResponseWriter, r *http.Request) {
	job := s.Job(r.PathValue("id"))
	if job == nil {
		writeError(w, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	data, err := job.SpansJSON()
	if err != nil {
		writeError(w, http.StatusConflict, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set(TraceHeader, job.TraceID)
	w.Write(data)
}

func (s *Server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	data, err := json.MarshalIndent(s.flight.doc(), "", "  ")
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

func (s *Server) handlePromMetrics(w http.ResponseWriter, r *http.Request) {
	data, err := s.PromText()
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	w.Header().Set("Content-Type", PromContentType)
	w.Write(data)
}

// healthzDoc is the GET /healthz body: liveness plus the load signals a
// balancer or autoscaler actually routes on.
type healthzDoc struct {
	Status   string     `json:"status"`
	Draining bool       `json:"draining"`
	InFlight int64      `json:"in_flight"`
	Shards   []ShardDoc `json:"shards"`
}

// handleHealthz reports drain state and per-shard queue depth. While
// draining it answers 503 with the same jittered Retry-After the 429
// path uses, so clients back off uniformly (and unsynchronized).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := healthzDoc{
		Status:   "ok",
		Draining: s.Draining(),
		InFlight: s.inFlight.Load(),
		Shards:   s.shardDocs(),
	}
	w.Header().Set("Content-Type", "application/json")
	if doc.Draining {
		doc.Status = "draining"
		setRetryAfter(w.Header())
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(doc)
}
