// Package loadgen drives a live daemon or fleet router over HTTP. It
// builds the crashsim-able corpus replay (CorpusRequests: the 15
// non-redis buggy targets, each with full repair and crash-schedule
// validation) and pushes a request set through an endpoint once per
// Round at a configurable concurrency, retrying backpressure
// rejections, firing scheduled fault-injection events, and handing
// every outcome to the caller. The chaos suite, the daemon's soak and
// cache tests, hippocratesd -smoke and hippobench use it.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
)

// The corpus replay's crash-validation budgets: small enough that a full
// round stays in seconds, large enough that every target exercises real
// schedule enumeration and recovery boots.
const (
	CrashPoints = 24
	CrashImages = 4
	StepLimit   = 50_000_000
)

// CorpusRequests builds one repair+crashcheck request per crashsim-able
// corpus target (seeded bugs and recovery entries; the eADR redis ports
// carry no crash-schedule evidence and are excluded — the same set the
// crash-sweep benchmark uses).
func CorpusRequests() []*cli.Request {
	var out []*cli.Request
	for _, p := range corpus.All() {
		if p.Target == "redis" || len(p.Bugs) == 0 {
			continue
		}
		out = append(out, &cli.Request{
			Program:     p.Name + ".pmc",
			Source:      p.Source(),
			Mode:        cli.ModeRepair,
			Entry:       p.Entry,
			CrashCheck:  true,
			CrashPoints: CrashPoints,
			CrashImages: CrashImages,
			StepLimit:   StepLimit,
		})
	}
	return out
}

// Options configures a load run.
type Options struct {
	// BaseURL is the driven endpoint's root — a hippocratesd backend or a
	// hippocratesfleet router, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Requests overrides the replayed set (default CorpusRequests).
	Requests []*cli.Request
	// Client overrides the HTTP client (default: 5-minute timeout).
	Client *http.Client
	// Schedule fires fault-injection (or any other) events while a round
	// runs — the chaos harness's kill/drain/latency triggers. Each event
	// fires once, on completion count or wall clock, whichever its fields
	// ask for.
	Schedule []Event
	// Retry503 retries 503 rejections (short flat backoff, like the 429
	// path) instead of failing the job. A fleet client needs it: a 503
	// means "everything is draining or down right now", which chaos
	// scenarios make a transient condition.
	Retry503 bool
	// OnResult, when set, receives every finished job's outcome — the
	// chaos harness's hook for byte-comparing accepted responses against
	// the sequential ground truth.
	OnResult func(req *cli.Request, res *Outcome)
}

// Event is one scheduled action inside a round: Run fires once when
// AfterDone jobs have completed (if > 0) or After wall time has elapsed
// (if > 0) — whichever is set; with both set, whichever happens first.
// Completion-count triggers are the chaos harness's default: they place
// a backend kill "mid-load" regardless of how fast the host is.
type Event struct {
	AfterDone int
	After     time.Duration
	Run       func()
}

// Outcome is one job's client-observed result.
type Outcome struct {
	// Status is the final HTTP status (200 for accepted jobs; a terminal
	// 4xx/5xx when retries were exhausted or not applicable).
	Status int
	// Body is the final response body (the cli.Response JSON on 200).
	Body []byte
	// Backend is the X-Hippocrates-Backend identity that answered, when
	// the daemon was booted with one.
	Backend string
	// Hit reports a response-cache hit (X-Hippocrates-Cache).
	Hit bool
	// RetryAfterOK reports that every 429/503 seen along the way carried
	// a parseable Retry-After header — the "rejections do no harm"
	// side-condition the chaos scenarios assert.
	RetryAfterOK bool
	Latency      time.Duration
	Retries429   int
	Retries503   int
	Err          error
}

// RoundStats is one round as the client observed it.
type RoundStats struct {
	Jobs       int
	Failures   int
	Retries429 int
	Retries503 int
	// CacheHits counts accepted jobs the response cache answered.
	CacheHits int
	WallMS    float64
	P99MS     float64
	// Backends counts accepted jobs per answering backend identity — only
	// populated when the daemons were booted with -id (fleet runs).
	Backends map[string]int
}

// Round pushes every request through the endpoint once, opts.Concurrency
// at a time, retrying 429 backpressure rejections (and, with Retry503,
// 503 rejections) with a short backoff, firing scheduled events as the
// round progresses.
func Round(opts Options) (*RoundStats, error) {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 8
	}
	if opts.Requests == nil {
		opts.Requests = CorpusRequests()
	}
	if opts.Client == nil {
		opts.Client = &http.Client{Timeout: 5 * time.Minute}
	}
	jobs := make(chan *cli.Request)
	results := make(chan *Outcome, len(opts.Requests))
	var done atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				o := post(opts, req)
				done.Add(1)
				if opts.OnResult != nil {
					opts.OnResult(req, o)
				}
				results <- o
			}
		}()
	}
	start := time.Now()
	stopSchedule := startSchedule(opts, start, &done)
	for _, req := range opts.Requests {
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	stopSchedule()
	close(results)

	rs := &RoundStats{Jobs: len(opts.Requests), WallMS: float64(wall.Nanoseconds()) / 1e6}
	var lats []float64
	for o := range results {
		rs.Retries429 += o.Retries429
		rs.Retries503 += o.Retries503
		if o.Err != nil {
			rs.Failures++
			continue
		}
		if o.Hit {
			rs.CacheHits++
		}
		if o.Backend != "" {
			if rs.Backends == nil {
				rs.Backends = map[string]int{}
			}
			rs.Backends[o.Backend]++
		}
		lats = append(lats, float64(o.Latency.Nanoseconds())/1e6)
	}
	if rs.Failures > 0 {
		return rs, fmt.Errorf("%d of %d jobs failed", rs.Failures, rs.Jobs)
	}
	sort.Float64s(lats)
	if len(lats) > 0 {
		rs.P99MS = lats[(len(lats)*99)/100]
	}
	return rs, nil
}

// startSchedule arms the round's scheduled events (if any) and returns
// the function that disarms the watcher. Each event fires exactly once,
// from a single goroutine polling completion count and wall clock — Run
// callbacks therefore never race each other.
func startSchedule(opts Options, start time.Time, done *atomic.Int64) func() {
	if len(opts.Schedule) == 0 {
		return func() {}
	}
	fired := make([]bool, len(opts.Schedule))
	stop := make(chan struct{})
	fin := make(chan struct{})
	go func() {
		defer close(fin)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case now := <-tick.C:
				n := int(done.Load())
				elapsed := now.Sub(start)
				remaining := false
				for i, ev := range opts.Schedule {
					if fired[i] {
						continue
					}
					if (ev.AfterDone > 0 && n >= ev.AfterDone) || (ev.After > 0 && elapsed >= ev.After) {
						fired[i] = true
						ev.Run()
						continue
					}
					remaining = true
				}
				if !remaining {
					return
				}
			}
		}
	}()
	return func() {
		close(stop)
		<-fin
	}
}

// post submits one request synchronously, honoring 429 (and, when
// enabled, 503) + Retry-After. Every terminal answer — success or not —
// comes back as an Outcome; Err doubles as the failed/ok discriminator.
func post(opts Options, req *cli.Request) *Outcome {
	o := &Outcome{RetryAfterOK: true}
	body, err := json.Marshal(req)
	if err != nil {
		o.Err = err
		return o
	}
	start := time.Now()
	for {
		resp, err := opts.Client.Post(opts.BaseURL+"/api/v1/repair", "application/json", bytes.NewReader(body))
		if err != nil {
			o.Err = err
			return o
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			o.Err = err
			return o
		}
		o.Status = resp.StatusCode
		o.Body = data
		o.Backend = resp.Header.Get("X-Hippocrates-Backend")
		switch resp.StatusCode {
		case http.StatusOK:
			o.Latency = time.Since(start)
			o.Hit = resp.Header.Get("X-Hippocrates-Cache") == "hit"
			return o
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if _, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil {
				o.RetryAfterOK = false
			}
			if resp.StatusCode == http.StatusServiceUnavailable {
				if !opts.Retry503 {
					o.Err = fmt.Errorf("%s: HTTP 503: %s", req.Program, data)
					return o
				}
				o.Retries503++
			} else {
				o.Retries429++
			}
			if o.Retries429+o.Retries503 > 1000 {
				o.Err = fmt.Errorf("gave up after %d backpressure retries", o.Retries429+o.Retries503)
				return o
			}
			time.Sleep(50 * time.Millisecond)
		default:
			o.Err = fmt.Errorf("%s: HTTP %d: %s", req.Program, resp.StatusCode, data)
			return o
		}
	}
}
