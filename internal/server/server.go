// Package server is hippocratesd's engine: a concurrent repair-as-a-service
// front end over the same cli.Run pipeline the command-line tools drive.
// Jobs arrive over HTTP (see handlers.go), flow through a bounded,
// source-sharded worker pool, and are answered with the deterministic
// cli.Response JSON — repaired source, repair-provenance audit trail, and
// per-round crash verdicts.
//
// Three layers make it a service rather than a looped CLI:
//
//   - Backpressure: each worker owns a bounded queue; a full queue rejects
//     the submit (HTTP 429 + Retry-After) instead of buffering without
//     bound, and SIGTERM drains what was accepted before exiting.
//   - Content-addressed caching: a response cache keyed by the canonical
//     request hash serves repeated requests byte-identically without
//     running anything, and an artifact cache keyed by the source hash
//     memoizes the lex/parse/lower result (each job repairs a private
//     clone) and shares the crashsim verdict cache across jobs of the same
//     program. Jobs are sharded by source key, so same-source jobs
//     serialize onto one worker and hit those caches warm.
//   - Isolation: every job runs under its own obs.Recorder (span trees and
//     audit trails never interleave; retrievable per job ID), inside
//     core.RunAndRepair's panic isolation, against a clamped wall-clock
//     deadline — a poisoned job fails alone, the daemon keeps serving.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/ir"
	"hippocrates/internal/lru"
	"hippocrates/internal/obs"
	"hippocrates/internal/static"
)

// Config sizes the service. The zero value gets sensible defaults from New.
type Config struct {
	// Workers is the worker-pool size (default GOMAXPROCS, max 8). Each
	// worker owns one queue shard; jobs are assigned by source hash.
	Workers int
	// QueueDepth bounds each worker's queue (default 32). A submit to a
	// full shard fails with ErrQueueFull — the HTTP layer's 429.
	QueueDepth int
	// Retention bounds how many finished jobs stay retrievable by ID
	// (default 256; oldest evicted first).
	Retention int
	// DefaultTimeout applies to jobs that specify no timeout_ms;
	// MaxTimeout clamps jobs that ask for more (defaults 60s / 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StepLimit overrides the per-run instruction budget of jobs that
	// specify none (0 keeps the interpreter's 100M default).
	StepLimit int64
	// TrackAllocs enables per-span allocation deltas on every job
	// recorder (runtime.ReadMemStats per span — measurable overhead), so
	// /metrics can serve per-phase alloc gauges. Off by default.
	TrackAllocs bool
	// FlightSlow / FlightFailed / FlightRejected bound the flight
	// recorder: the N slowest jobs kept with full span trees and audit
	// trails, the most recent failed jobs, and the most recent 429/503
	// rejections (defaults 16 / 32 / 64).
	FlightSlow     int
	FlightFailed   int
	FlightRejected int
	// BackendID names this daemon instance in a fleet: /healthz reports
	// it and every submit outcome carries it as X-Hippocrates-Backend, so
	// a router (cmd/hippocratesfleet) and the chaos harness can attribute
	// responses to nodes. Empty means standalone (no header, no field).
	BackendID string
	// Log receives one line per job (nil = silent).
	Log io.Writer
}

// Bounds of the two content caches (LRU eviction): serialized responses
// keyed by canonical request hash, and compiled artifacts keyed by source
// hash.
const (
	responseCacheSize = 512
	artifactCacheSize = 64
)

// Submission errors the HTTP layer maps to status codes.
var (
	// ErrQueueFull means the job's shard queue is at capacity (429).
	ErrQueueFull = errors.New("server: job queue full")
	// ErrDraining means the daemon is shutting down (503).
	ErrDraining = errors.New("server: draining, not accepting jobs")
)

// Job states.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
)

// Job is one submitted request and its lifecycle. TraceID is assigned at
// submit time (inbound header or generated) and immutable afterwards; it
// reappears in the response header, the span tree, the log line, and —
// for slow/failed jobs — the flight recorder.
type Job struct {
	ID      string
	TraceID string

	mu       sync.Mutex
	state    string
	err      error
	respJSON []byte
	cacheHit bool
	rec      *obs.Recorder
	done     chan struct{}
	req      *cli.Request
	created  time.Time
	// key and sourceKey are req.Key() and req.SourceKey(), hashed once
	// at submission (after the budgets are clamped) for the response
	// cache, shard choice, and artifact cache.
	key, sourceKey string
}

// State returns the job's current lifecycle state.
func (j *Job) State() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Err returns the job's failure (nil unless StateFailed).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// ResponseJSON returns the serialized response (nil until StateDone).
func (j *Job) ResponseJSON() []byte {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.respJSON
}

// CacheHit reports whether the job was answered from the response cache.
func (j *Job) CacheHit() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.cacheHit
}

// Done returns a channel closed when the job finishes (either state).
func (j *Job) Done() <-chan struct{} { return j.done }

// SpansJSON returns the job's own span tree (per-job recorder, so
// concurrent jobs never interleave). Nil until the job ran.
func (j *Job) SpansJSON() ([]byte, error) {
	j.mu.Lock()
	rec := j.rec
	j.mu.Unlock()
	if rec == nil {
		return nil, fmt.Errorf("job %s has no spans yet", j.ID)
	}
	return rec.SpansJSON()
}

// Server is the repair service.
type Server struct {
	cfg    Config
	shards []chan *Job
	wg     sync.WaitGroup

	responses *lru.Cache[string, []byte]
	artifacts *lru.Cache[string, *artifact]

	// verdictHits / verdictMisses accumulate every job's lookups in its
	// artifact's shared crash-verdict cache. They are counted per job, not
	// read off the retained artifacts, so evicting an artifact or retiring
	// its verdict cache never takes counts back.
	verdictHits   atomic.Int64
	verdictMisses atomic.Int64

	// summaries is the daemon-wide incremental-analysis store: static jobs
	// share canonicalized function summaries and alias constraints keyed by
	// content hash, so a job whose functions were analyzed before — by any
	// earlier job — replays them instead of recomputing. Results are
	// byte-identical with or without it (the store key covers everything a
	// summary depends on), so sharing across tenants is safe.
	summaries *static.Store

	// rec aggregates counters, gauges, and latency histograms over all
	// finished jobs (per-job span trees stay on the jobs' own recorders —
	// merging them would interleave span IDs).
	rec *obs.Recorder

	// flight retains the slowest and all failed/rejected jobs for
	// post-hoc diagnosis (GET /api/v1/debug/flightrecorder).
	flight *flightRecorder

	// windows holds one rolling per-phase latency histogram (plus the
	// whole-job "job" row and the pre-run "queue_wait" row) so /metrics
	// serves 1m/5m quantiles that decay, unlike rec's since-boot
	// histograms. phaseAlloc accumulates per-phase allocation bytes when
	// cfg.TrackAllocs is on.
	winMu      sync.Mutex
	windows    map[string]*obs.Windowed
	phaseAlloc map[string]uint64

	// drainMu serializes submits against BeginDrain: submitters hold the
	// read side across the draining check and the shard send, so the
	// write side can flip the flag and close the shard channels knowing
	// no send is in flight (sending on a closed channel would panic).
	drainMu sync.RWMutex

	inFlight  atomic.Int64
	submitted atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	cached    atomic.Int64
	rejected  atomic.Int64
	draining  atomic.Bool
	start     time.Time

	mu    sync.Mutex
	jobs  map[string]*Job
	order []string // completion-retention ring, oldest first
	seq   int64
}

// New starts a server's worker pool. Call Shutdown to drain it.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
		if cfg.Workers > 8 {
			cfg.Workers = 8
		}
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 32
	}
	if cfg.Retention <= 0 {
		cfg.Retention = 256
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 60 * time.Second
	}
	if cfg.MaxTimeout <= 0 {
		cfg.MaxTimeout = 5 * time.Minute
	}
	s := &Server{
		cfg:        cfg,
		responses:  lru.New[string, []byte](responseCacheSize),
		artifacts:  lru.New[string, *artifact](artifactCacheSize),
		summaries:  static.NewStore(0),
		rec:        obs.New(),
		flight:     newFlightRecorder(cfg.FlightSlow, cfg.FlightFailed, cfg.FlightRejected),
		windows:    make(map[string]*obs.Windowed),
		phaseAlloc: make(map[string]uint64),
		jobs:       make(map[string]*Job),
		start:      time.Now(),
	}
	s.shards = make([]chan *Job, cfg.Workers)
	for i := range s.shards {
		s.shards[i] = make(chan *Job, cfg.QueueDepth)
		s.wg.Add(1)
		go s.worker(s.shards[i])
	}
	return s
}

// Submit validates and enqueues a request with a fresh trace ID. It
// returns the job — possibly already done, when the response cache
// recognizes the request — or ErrQueueFull / ErrDraining / a validation
// error.
func (s *Server) Submit(req *cli.Request) (*Job, error) {
	return s.SubmitTraced(req, "")
}

// SubmitTraced is Submit under a caller-supplied trace ID (the HTTP
// layer's inbound X-Trace-Id / traceparent); empty generates one.
func (s *Server) SubmitTraced(req *cli.Request, traceID string) (*Job, error) {
	if traceID == "" {
		traceID = NewTraceID()
	}
	s.drainMu.RLock()
	defer s.drainMu.RUnlock()
	if s.draining.Load() {
		return nil, ErrDraining
	}
	if err := req.Validate(); err != nil {
		return nil, fmt.Errorf("invalid request: %w", err)
	}
	// Clamp the job's budgets to service policy here, before the response
	// cache is probed: the cache key covers the canonical request, so the
	// clamped form must be what both get and put hash.
	if req.TimeoutMS <= 0 {
		req.TimeoutMS = s.cfg.DefaultTimeout.Milliseconds()
	}
	if maxMS := s.cfg.MaxTimeout.Milliseconds(); req.TimeoutMS > maxMS {
		req.TimeoutMS = maxMS
	}
	if req.StepLimit == 0 {
		req.StepLimit = s.cfg.StepLimit
	}
	job := &Job{
		TraceID:   traceID,
		state:     StateQueued,
		done:      make(chan struct{}),
		req:       req,
		created:   time.Now(),
		key:       req.Key(),
		sourceKey: req.SourceKey(),
	}
	s.mu.Lock()
	s.seq++
	job.ID = fmt.Sprintf("job-%06d", s.seq)
	s.mu.Unlock()
	s.submitted.Add(1)

	// Response-cache fast path: an identical request (canonical hash) was
	// already answered, and the pipeline is deterministic — serve the
	// bytes without queueing.
	if data, ok := s.responses.Get(job.key); ok {
		job.mu.Lock()
		job.state = StateDone
		job.respJSON = data
		job.cacheHit = true
		job.mu.Unlock()
		s.cached.Add(1)
		s.completed.Add(1)
		s.rec.Add("server.jobs.response_cache_hits", 1)
		close(job.done)
		s.remember(job)
		s.logf("%s trace=%s %s %s: response cache hit", job.ID, job.TraceID, req.Mode, req.Program)
		return job, nil
	}

	shard := s.shards[shardOf(job.sourceKey, len(s.shards))]
	select {
	case shard <- job:
		s.remember(job)
		return job, nil
	default:
		s.rejected.Add(1)
		s.flight.recordReject(traceID, req.Program, req.Mode, 429)
		return nil, ErrQueueFull
	}
}

// ShardDepths returns each worker shard's queued (not yet running) job
// count, index-aligned with the pool.
func (s *Server) ShardDepths() []int {
	out := make([]int, len(s.shards))
	for i, ch := range s.shards {
		out[i] = len(ch)
	}
	return out
}

// observeWindow records one latency sample into a phase's rolling window
// (5s resolution, 60 slots — a 5-minute ring serving 1m/5m quantiles).
func (s *Server) observeWindow(phase string, ns int64) {
	s.winMu.Lock()
	w := s.windows[phase]
	if w == nil {
		w = obs.NewWindowed(5*time.Second, 60)
		s.windows[phase] = w
	}
	s.winMu.Unlock()
	w.Observe(ns)
}

// windowSnapshots folds every phase's ring into (phase, window) rows for
// the exporters; windows with no samples are skipped.
func (s *Server) windowSnapshots() []PhaseWindowDoc {
	s.winMu.Lock()
	phases := make(map[string]*obs.Windowed, len(s.windows))
	for k, w := range s.windows {
		phases[k] = w
	}
	s.winMu.Unlock()
	var out []PhaseWindowDoc
	for phase, w := range phases {
		for _, win := range []struct {
			name string
			d    time.Duration
		}{{"1m", time.Minute}, {"5m", 5 * time.Minute}} {
			h := w.Snapshot(win.d)
			if h.Count == 0 {
				continue
			}
			out = append(out, PhaseWindowDoc{
				Phase:  phase,
				Window: win.name,
				Count:  h.Count,
				P50NS:  h.Quantile(0.50),
				P95NS:  h.Quantile(0.95),
				P99NS:  h.Quantile(0.99),
				MaxNS:  h.Max,
				SumNS:  h.Sum,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Window < out[j].Window
	})
	return out
}

// addPhaseAlloc accumulates a phase's allocation bytes (TrackAllocs on).
func (s *Server) addPhaseAlloc(phase string, bytes uint64) {
	s.winMu.Lock()
	s.phaseAlloc[phase] += bytes
	s.winMu.Unlock()
}

// phaseAllocs returns a copy of the per-phase allocation totals.
func (s *Server) phaseAllocs() map[string]uint64 {
	s.winMu.Lock()
	defer s.winMu.Unlock()
	out := make(map[string]uint64, len(s.phaseAlloc))
	for k, v := range s.phaseAlloc {
		out[k] = v
	}
	return out
}

// shardOf maps a source key onto a worker, so jobs for the same program
// serialize onto the same queue and find its artifacts warm.
func shardOf(key string, n int) int {
	h := fnv.New32a()
	io.WriteString(h, key)
	return int(h.Sum32() % uint32(n))
}

// remember indexes the job by ID and evicts beyond the retention bound.
func (s *Server) remember(j *Job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.ID] = j
	s.order = append(s.order, j.ID)
	for len(s.order) > s.cfg.Retention {
		oldest := s.jobs[s.order[0]]
		if oldest != nil {
			select {
			case <-oldest.done:
			default:
				// Still pending; keep everything until it finishes.
				return
			}
		}
		delete(s.jobs, s.order[0])
		s.order = s.order[1:]
	}
}

// Job returns a retained job by ID.
func (s *Server) Job(id string) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// worker drains one shard queue.
func (s *Server) worker(ch chan *Job) {
	defer s.wg.Done()
	for job := range ch {
		s.runJob(job)
	}
}

// runJob executes one job end to end: artifact lookup (memoized compile +
// shared verdict cache), a private module clone, the cli pipeline under
// the job's own recorder, response serialization, and cache fills.
func (s *Server) runJob(job *Job) {
	s.inFlight.Add(1)
	started := time.Now()
	job.mu.Lock()
	job.state = StateRunning
	req := job.req
	rec := obs.New()
	if s.cfg.TrackAllocs {
		rec.SetTrackAllocs(true)
	}
	job.rec = rec
	job.mu.Unlock()

	root := rec.StartSpan("job")
	root.SetAttr("job", job.ID)
	root.SetAttr("trace_id", job.TraceID)
	s.observeWindow("queue_wait", started.Sub(job.created).Nanoseconds())

	finish := func(data []byte, err error) {
		root.End()
		s.inFlight.Add(-1)
		job.mu.Lock()
		if err != nil {
			job.state = StateFailed
			job.err = err
		} else {
			job.state = StateDone
			job.respJSON = data
		}
		job.mu.Unlock()
		elapsed := time.Since(started)
		if err != nil {
			s.failed.Add(1)
			s.rec.Add("server.jobs.failed", 1)
			s.logf("%s trace=%s %s %s: FAILED in %s: %v", job.ID, job.TraceID, req.Mode, req.Program, elapsed.Round(time.Millisecond), err)
		} else {
			s.completed.Add(1)
			s.logf("%s trace=%s %s %s: done in %s", job.ID, job.TraceID, req.Mode, req.Program, elapsed.Round(time.Millisecond))
		}
		// Fold the job's counters, gauges, and per-phase wall times into
		// the service-wide aggregate. Span trees stay on the job recorder.
		rec.SetGauge("server.job.last_latency_ns", elapsed.Nanoseconds())
		s.rec.Merge(rec)
		s.rec.Observe("server.job.ns", elapsed.Nanoseconds())
		s.observeWindow("job", elapsed.Nanoseconds())
		for _, pt := range rec.PhaseTotals() {
			if pt.Name == "job" {
				continue
			}
			s.rec.Observe("server.phase."+pt.Name+".ns", pt.Total.Nanoseconds())
			s.observeWindow(pt.Name, pt.Total.Nanoseconds())
			if s.cfg.TrackAllocs {
				s.addPhaseAlloc(pt.Name, pt.Alloc)
			}
		}
		// Flight recorder: failed jobs always, others when slow enough.
		// The capture closure runs only when the entry is retained.
		s.flight.offer(job, float64(elapsed.Nanoseconds())/1e6, err, func() (json.RawMessage, []*obs.AuditEntry) {
			spans, sErr := rec.SpansJSON()
			if sErr != nil {
				spans = []byte(`{"spans":[]}`)
			}
			return spans, rec.AuditTrail()
		})
		// Done last: a waiter must see the job's effect on the server's
		// counters and aggregates.
		close(job.done)
	}

	// Artifact cache: compile once per (program, source), clone per job —
	// repair mutates the module, the cached master stays pristine.
	art, err := s.artifactFor(req, job.sourceKey)
	if err != nil {
		finish(nil, err)
		return
	}
	mod := ir.CloneModule(art.mod)

	// Share memoized crash verdicts across jobs of this source. Sound
	// because verdict keys are image-content hashes and same-source jobs
	// serialize on one shard; if this job's repair rewrites
	// recovery-reachable code, the pipeline Resets the cache (bumping its
	// generation) and we retire the shared instance — its surviving
	// entries would describe the repaired module's recovery code, not the
	// original's.
	var gen, vHits, vMisses int64
	if req.CrashCheck && req.CrashCache == nil {
		req.CrashCache = art.verdicts()
		gen = req.CrashCache.Generation()
		vHits, vMisses = req.CrashCache.Stats()
	}

	// Static jobs run against the daemon-wide summary store: functions any
	// earlier job already analyzed replay their cached summaries and alias
	// constraints instead of being re-analyzed. The CrashCache pattern
	// above applies — attach for the run, detach before the job is retained.
	if req.Static {
		req.SummaryStore = s.summaries
	}

	resp, err := cli.RunModule(req, mod, root)
	req.SummaryStore = nil
	if req.CrashCache != nil {
		// Reset keeps the cumulative stats and same-source jobs serialize,
		// so the delta is exactly this job's lookups.
		h, m := req.CrashCache.Stats()
		s.verdictHits.Add(h - vHits)
		s.verdictMisses.Add(m - vMisses)
		if req.CrashCache.Generation() != gen {
			art.retireVerdicts(req.CrashCache)
		}
		req.CrashCache = nil
	}
	if err != nil {
		finish(nil, err)
		return
	}
	if inc, ok := staticIncr(resp); ok {
		s.logf("%s trace=%s summary-store: %d hits / %d misses (%.0f%% warm), cons %d/%d",
			job.ID, job.TraceID, inc.SumHits, inc.SumMisses, 100*inc.HitRatio(),
			inc.ConsHits, inc.ConsMisses)
	}
	data, err := resp.EncodeJSON()
	if err != nil {
		finish(nil, err)
		return
	}
	s.responses.Add(job.key, data)
	finish(data, nil)
}

// artifactFor returns the artifact for the request's source (key is its
// SourceKey), compiling on a miss. The compile runs outside the cache
// lock: same-source jobs land on one shard (see shardOf), so two workers
// never race to compile one source. Front-end telemetry of a fresh
// compile is recorded on the aggregate recorder so the metrics still see
// lex/parse/lower costs.
func (s *Server) artifactFor(req *cli.Request, key string) (*artifact, error) {
	if art, ok := s.artifacts.Get(key); ok {
		return art, nil
	}
	sp := s.rec.StartSpan("compile")
	sp.SetAttr("program", req.Program)
	mod, err := cli.CompileRequest(req, sp)
	sp.End()
	if err != nil {
		return nil, err
	}
	return s.artifacts.Add(key, &artifact{mod: mod}), nil
}

// BeginDrain flips the daemon into drain mode without waiting: new
// submissions fail with ErrDraining (503 + Retry-After over HTTP),
// /healthz reports "draining", and the shard queues are closed so the
// workers exit once the accepted backlog is done. Idempotent. It is the
// SIGTERM handler's first move and the handoff hook a fleet router
// observes: the instant /healthz flips, the router stops hashing new
// keys here while in-flight jobs run to completion.
func (s *Server) BeginDrain() {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Swap(true) {
		return // already draining
	}
	for _, ch := range s.shards {
		close(ch)
	}
}

// Shutdown drains the pool: no new submissions are accepted, queued jobs
// run to completion (bounded by ctx), then the workers exit.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueueDepth returns the total queued (not yet running) jobs.
func (s *Server) QueueDepth() int {
	n := 0
	for _, ch := range s.shards {
		n += len(ch)
	}
	return n
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, "hippocratesd: "+format+"\n", args...)
}

// staticIncr extracts a static job's summary-store traffic from its
// response: check mode's single analysis, or repair mode's before and
// after passes summed (the two share one Result when no repair ran).
func staticIncr(resp *cli.Response) (static.IncrStats, bool) {
	switch {
	case resp == nil:
		return static.IncrStats{}, false
	case resp.StaticCheck != nil:
		return resp.StaticCheck.Incr, true
	case resp.StaticResult != nil && resp.StaticResult.Before != nil:
		inc := resp.StaticResult.Before.Incr
		if after := resp.StaticResult.After; after != nil && after != resp.StaticResult.Before {
			inc.SumHits += after.Incr.SumHits
			inc.SumMisses += after.Incr.SumMisses
			inc.ConsHits += after.Incr.ConsHits
			inc.ConsMisses += after.Incr.ConsMisses
		}
		return inc, true
	}
	return static.IncrStats{}, false
}
