package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
)

// Tuning defaults. Every knob is overridable through Config; the
// defaults are sized for same-host fleets (the chaos harness and the
// fleet-smoke gate), where connection failures surface in microseconds.
const (
	defaultProbeInterval = 500 * time.Millisecond
	defaultRetryBase     = 50 * time.Millisecond
	defaultRetryMax      = 2 * time.Second
	defaultDeadlineGrace = 2 * time.Second
	maxBodyBytes         = 64 << 20
)

// Backend names one hippocratesd node for the router.
type Backend struct {
	Name string // stable identity; should match the daemon's -id
	URL  string // e.g. http://127.0.0.1:8081
}

// Config configures a Router.
type Config struct {
	Backends []Backend
	// ProbeInterval is the health-poll period (default 500ms).
	ProbeInterval time.Duration
	// HedgeAfter, when > 0, fires a duplicate attempt chain on the
	// rotated preference order if the primary has not answered within
	// this long. Safe by construction: hippocratesd's replay contract is
	// byte-identical responses for an identical request, so whichever
	// copy wins, the client sees the same bytes. Costs duplicate work —
	// reserve it for latency-sensitive fronts.
	HedgeAfter time.Duration
	// RetryBase is the base backoff between failover attempts (default
	// 50ms, exponential, ±50% jitter, capped at 2s).
	RetryBase time.Duration
	// DeadlineGrace pads the client's timeout_ms when deriving the
	// proxy-side deadline (default 2s): the backend must have time to
	// answer its own 504 before the router gives up on the connection.
	DeadlineGrace time.Duration
	// Client overrides the proxying HTTP client (default: no timeout —
	// per-request deadlines come from timeout_ms via context).
	Client *http.Client
	// ProbeClient overrides the health-poll client (default 2s timeout).
	ProbeClient *http.Client
}

// Router is the consistent-hash fleet front. Create with New, serve
// Handler(), stop with Close.
type Router struct {
	cfg      Config
	ring     *Ring
	backends map[string]*backend
	client   *http.Client
	probe    *http.Client

	inFlight atomic.Int64
	stop     chan struct{}
	done     sync.WaitGroup

	mRequests  *obs.PromVec // code × backend
	mRetries   *obs.PromVec // reason (conn | reject)
	mEjections *obs.PromVec // backend
	mHealthy   *obs.PromVec // backend gauge
	mHedges    *obs.PromVec
	mHedgeWins *obs.PromVec
}

// New builds the router, runs one synchronous health-probe round (so
// the first request already has verdicts, not zero values), and starts
// the background poller.
func New(cfg Config) (*Router, error) {
	names := make([]string, len(cfg.Backends))
	for i, b := range cfg.Backends {
		names[i] = b.Name
	}
	ring, err := NewRing(names)
	if err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = defaultProbeInterval
	}
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = defaultRetryBase
	}
	if cfg.DeadlineGrace <= 0 {
		cfg.DeadlineGrace = defaultDeadlineGrace
	}
	rt := &Router{
		cfg:      cfg,
		ring:     ring,
		backends: make(map[string]*backend, len(cfg.Backends)),
		client:   cfg.Client,
		probe:    cfg.ProbeClient,
		stop:     make(chan struct{}),

		mRequests:  obs.NewPromVec("hippocratesfleet_requests_total", "Proxied requests by final status code and answering backend.", "counter", "code", "backend"),
		mRetries:   obs.NewPromVec("hippocratesfleet_retries_total", "Failover retries by reason (conn = transport failure, reject = backend 503).", "counter", "reason"),
		mEjections: obs.NewPromVec("hippocratesfleet_breaker_ejections_total", "Circuit-breaker ejections per backend.", "counter", "backend"),
		mHealthy:   obs.NewPromVec("hippocratesfleet_backend_healthy", "Health-probe verdict per backend (1 = healthy and not draining).", "gauge", "backend"),
		mHedges:    obs.NewPromVec("hippocratesfleet_hedges_total", "Hedged duplicate attempt chains launched.", "counter"),
		mHedgeWins: obs.NewPromVec("hippocratesfleet_hedge_wins_total", "Requests answered by the hedge instead of the primary.", "counter"),
	}
	if rt.client == nil {
		rt.client = &http.Client{}
	}
	if rt.probe == nil {
		rt.probe = &http.Client{Timeout: 2 * time.Second}
	}
	// Pre-seed every counter cell at zero: scrapes see the full shape of
	// the metric space from the first poll, not only after the first event.
	rt.mRetries.Add(0, "conn")
	rt.mRetries.Add(0, "reject")
	rt.mHedges.Add(0)
	rt.mHedgeWins.Add(0)
	for _, b := range cfg.Backends {
		rt.backends[b.Name] = &backend{name: b.Name, url: b.URL}
		rt.mEjections.Add(0, b.Name)
	}
	rt.probeAll()
	rt.done.Add(1)
	go rt.pollHealth()
	return rt, nil
}

// Close stops the health poller. In-flight proxying is unaffected.
func (rt *Router) Close() {
	select {
	case <-rt.stop:
	default:
		close(rt.stop)
	}
	rt.done.Wait()
}

func (rt *Router) pollHealth() {
	defer rt.done.Done()
	tick := time.NewTicker(rt.cfg.ProbeInterval)
	defer tick.Stop()
	for {
		select {
		case <-rt.stop:
			return
		case <-tick.C:
			rt.probeAll()
		}
	}
}

func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, b := range rt.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			if b.probeHealth(rt.probe) {
				rt.mHealthy.Set(1, b.name)
			} else {
				rt.mHealthy.Set(0, b.name)
			}
		}(b)
	}
	wg.Wait()
}

// Handler returns the router's HTTP surface: the proxied job API plus
// the router's own health and metrics endpoints.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/repair", rt.handleProxy)
	mux.HandleFunc("POST /api/v1/jobs", rt.handleProxy)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	return mux
}

// proxyResult is one attempt chain's terminal answer.
type proxyResult struct {
	status  int
	header  http.Header
	body    []byte
	backend string
	err     error // set only when the whole chain failed without an HTTP answer
}

// handleProxy routes one job submission: pick the preference order from
// the source key, run the bounded retry chain, optionally hedge, relay
// the winner verbatim.
func (rt *Router) handleProxy(w http.ResponseWriter, r *http.Request) {
	rt.inFlight.Add(1)
	defer rt.inFlight.Add(-1)

	body, err := io.ReadAll(io.LimitReader(r.Body, maxBodyBytes+1))
	if err != nil || len(body) > maxBodyBytes {
		writeRouterError(w, http.StatusBadRequest, "unreadable or oversized body")
		return
	}
	// The router only needs the source key and deadline; the body is
	// forwarded untouched so backend-side request hashing sees exactly
	// the client's bytes.
	var peek struct {
		Program   string `json:"program"`
		Source    string `json:"source"`
		TimeoutMS int64  `json:"timeout_ms"`
	}
	if err := json.Unmarshal(body, &peek); err != nil {
		writeRouterError(w, http.StatusBadRequest, "request is not JSON: %v", err)
		return
	}
	key := (&cli.Request{Program: peek.Program, Source: peek.Source}).SourceKey()
	order := rt.ring.Order(key)

	ctx := r.Context()
	if peek.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx,
			time.Duration(peek.TimeoutMS)*time.Millisecond+rt.cfg.DeadlineGrace)
		defer cancel()
	}

	res := rt.raceChains(ctx, r, order, body)
	if res.err != nil {
		// Every backend was down, draining, or unreachable: tell the
		// client to back off and retry — the same contract a draining
		// daemon gives, so existing clients need no new handling.
		h := w.Header()
		h.Set("Retry-After", strconv.Itoa(1+rand.IntN(3)))
		rt.mRequests.Add(1, "503", "none")
		writeRouterError(w, http.StatusServiceUnavailable, "no backend available: %v", res.err)
		return
	}
	relay(w, res)
	rt.mRequests.Add(1, strconv.Itoa(res.status), res.backend)
}

// raceChains runs the primary attempt chain and, when hedging is armed
// and the primary is slow, a duplicate on the rotated order. First
// terminal answer wins; the loser's context is cancelled.
func (rt *Router) raceChains(ctx context.Context, r *http.Request, order []string, body []byte) *proxyResult {
	hedged := rt.cfg.HedgeAfter > 0 && len(order) > 1
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()

	primary := make(chan *proxyResult, 1)
	go func() { primary <- rt.attemptChain(cctx, r, order, body) }()
	if !hedged {
		return <-primary
	}
	timer := time.NewTimer(rt.cfg.HedgeAfter)
	defer timer.Stop()
	select {
	case res := <-primary:
		return res
	case <-timer.C:
	}
	rt.mHedges.Add(1)
	rot := make([]string, 0, len(order))
	rot = append(rot, order[1:]...)
	rot = append(rot, order[0])
	hedge := make(chan *proxyResult, 1)
	go func() { hedge <- rt.attemptChain(cctx, r, rot, body) }()

	// Two chains racing; a chain that failed outright must not win
	// while the other still runs.
	select {
	case res := <-primary:
		if res.err == nil {
			return res
		}
		if h := <-hedge; h.err == nil {
			rt.mHedgeWins.Add(1)
			return h
		}
		return res
	case res := <-hedge:
		if res.err == nil {
			rt.mHedgeWins.Add(1)
			return res
		}
		if p := <-primary; p.err == nil {
			return p
		}
		return res
	}
}

// attemptChain walks the preference order with bounded retries: up to
// two passes over the candidates. Transport failures feed the breaker
// and back off exponentially with jitter; a 503 advances to the next
// candidate without a breaker count (drain is deliberate); every other
// HTTP answer — including 429 backpressure and the deterministic
// 504-deadline/422 error docs — is terminal and relayed as-is, because
// replaying a deterministic failure elsewhere buys nothing and hides
// backpressure from the client.
func (rt *Router) attemptChain(ctx context.Context, r *http.Request, order []string, body []byte) *proxyResult {
	var lastErr error = fmt.Errorf("no candidates")
	attempt := 0
	for pass := 0; pass < 2; pass++ {
		candidates := rt.partition(order, pass)
		for _, b := range candidates {
			if ctx.Err() != nil {
				return &proxyResult{err: ctx.Err()}
			}
			if attempt > 0 {
				sleepCtx(ctx, backoff(rt.cfg.RetryBase, attempt-1))
			}
			attempt++
			res, err := rt.proxyOnce(ctx, r, b, body)
			if err != nil {
				lastErr = err
				if b.Fail() {
					rt.mEjections.Add(1, b.name)
				}
				rt.mRetries.Add(1, "conn")
				continue
			}
			b.Succeed()
			if res.status == http.StatusServiceUnavailable {
				lastErr = fmt.Errorf("%s: HTTP 503 (draining or saturated)", b.name)
				rt.mRetries.Add(1, "reject")
				continue
			}
			return res
		}
	}
	return &proxyResult{err: lastErr}
}

// partition orders the pass's candidates: pass 0 tries only available
// backends (healthy, not draining, not ejected) in preference order;
// pass 1 is the last resort — every backend in preference order, since
// health verdicts may be up to a probe interval stale.
func (rt *Router) partition(order []string, pass int) []*backend {
	var out []*backend
	for _, name := range order {
		b := rt.backends[name]
		if pass == 0 && !b.Available() {
			continue
		}
		out = append(out, b)
	}
	return out
}

// proxyOnce forwards the submission to one backend. Transport-level
// failure returns err; any HTTP answer returns a result.
func (rt *Router) proxyOnce(ctx context.Context, orig *http.Request, b *backend, body []byte) (*proxyResult, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+orig.URL.Path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tid := orig.Header.Get("X-Trace-Id"); tid != "" {
		req.Header.Set("X-Trace-Id", tid)
	}
	resp, err := rt.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &proxyResult{status: resp.StatusCode, header: resp.Header, body: data, backend: b.name}, nil
}

// relayHeaders are the backend response headers the router forwards.
var relayHeaders = []string{
	"Content-Type",
	"Retry-After",
	"X-Hippocrates-Job",
	"X-Hippocrates-Cache",
	"X-Hippocrates-Backend",
	"X-Trace-Id",
}

func relay(w http.ResponseWriter, res *proxyResult) {
	h := w.Header()
	for _, name := range relayHeaders {
		if v := res.header.Get(name); v != "" {
			h.Set(name, v)
		}
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func writeRouterError(w http.ResponseWriter, status int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

// backoff is exponential from base with ±50% jitter, capped.
func backoff(base time.Duration, n int) time.Duration {
	if n > 8 {
		n = 8
	}
	d := base << n
	if d > defaultRetryMax {
		d = defaultRetryMax
	}
	half := int64(d) / 2
	return time.Duration(half + rand.Int64N(half+1))
}

func sleepCtx(ctx context.Context, d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-t.C:
	}
}

// Stats is a point-in-time snapshot of the router's own counters, for
// harnesses and benchmarks that assert on routing behavior without
// scraping and parsing /metrics.
type Stats struct {
	RetriesConn   float64 `json:"retries_conn"`
	RetriesReject float64 `json:"retries_reject"`
	Ejections     float64 `json:"ejections"`
	Hedges        float64 `json:"hedges"`
	HedgeWins     float64 `json:"hedge_wins"`
}

// StatsSnapshot returns the router's current counter values.
func (rt *Router) StatsSnapshot() Stats {
	return Stats{
		RetriesConn:   rt.mRetries.Get("conn"),
		RetriesReject: rt.mRetries.Get("reject"),
		Ejections:     rt.mEjections.Total(),
		Hedges:        rt.mHedges.Total(),
		HedgeWins:     rt.mHedgeWins.Total(),
	}
}

// handleHealthz reports the router's view of the fleet. The router
// itself answers 200 as long as it is up; per-backend verdicts are in
// the body (and a fleet with zero available backends reports
// available_backends 0 — monitors alert on the number, load balancers
// on the status).
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	states := rt.states()
	avail := 0
	for _, s := range states {
		if s.Healthy && !s.Draining && !s.Ejected {
			avail++
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"status":             "ok",
		"role":               "router",
		"backends":           states,
		"available_backends": avail,
	})
}

func (rt *Router) states() []BackendState {
	out := make([]BackendState, 0, len(rt.backends))
	for _, name := range rt.ring.Backends() {
		out = append(out, rt.backends[name].state())
	}
	return out
}

// handleMetrics renders the router's own Prometheus families. The
// output must pass obs.LintProm — the fleet-smoke gate checks it.
func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	fams := []obs.PromFamily{
		rt.mRequests.Family(),
		rt.mRetries.Family(),
		rt.mEjections.Family(),
		rt.mHealthy.Family(),
		rt.mHedges.Family(),
		rt.mHedgeWins.Family(),
		{
			Name: "hippocratesfleet_in_flight", Help: "Requests currently being proxied.", Type: "gauge",
			Samples: []obs.PromSample{{Value: float64(rt.inFlight.Load())}},
		},
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	obs.WriteProm(w, fams)
}
