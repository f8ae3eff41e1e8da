// Package loadgen drives a live daemon over HTTP. It builds the
// crashsim-able corpus replay (CorpusRequests: the 15 non-redis buggy
// targets, each with full repair and crash-schedule validation) and
// pushes a request set through the daemon once per Round at a
// configurable concurrency, retrying 429 backpressure rejections. The
// daemon's soak and cache tests, hippocratesd -smoke and hippobench use
// it.
package loadgen

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
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
	// BaseURL is the driven daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the number of client workers (default 8).
	Concurrency int
	// Requests overrides the replayed set (default CorpusRequests).
	Requests []*cli.Request
	// Client overrides the HTTP client (default: 5-minute timeout).
	Client *http.Client
}

// outcome is one job's client-observed result.
type outcome struct {
	// hit reports a response-cache hit (X-Hippocrates-Cache).
	hit bool
	err error
}

// RoundStats is one round as the client observed it.
type RoundStats struct {
	Jobs     int
	Failures int
	// CacheHits counts accepted jobs the response cache answered.
	CacheHits int
	WallMS    float64
}

// Round pushes every request through the daemon once, opts.Concurrency
// at a time, retrying 429 backpressure rejections with a short backoff.
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
	results := make(chan *outcome, len(opts.Requests))
	var wg sync.WaitGroup
	for w := 0; w < opts.Concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				results <- post(opts, req)
			}
		}()
	}
	start := time.Now()
	for _, req := range opts.Requests {
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	wall := time.Since(start)
	close(results)

	rs := &RoundStats{Jobs: len(opts.Requests), WallMS: float64(wall.Nanoseconds()) / 1e6}
	for o := range results {
		switch {
		case o.err != nil:
			rs.Failures++
		case o.hit:
			rs.CacheHits++
		}
	}
	if rs.Failures > 0 {
		return rs, fmt.Errorf("%d of %d jobs failed", rs.Failures, rs.Jobs)
	}
	return rs, nil
}

// post submits one request synchronously, retrying 429 rejections.
// Every terminal answer — success or not — comes back as an outcome; err
// doubles as the failed/ok discriminator.
func post(opts Options, req *cli.Request) *outcome {
	o := &outcome{}
	body, err := json.Marshal(req)
	if err != nil {
		o.err = err
		return o
	}
	for retries := 0; ; retries++ {
		resp, err := opts.Client.Post(opts.BaseURL+"/api/v1/repair", "application/json", bytes.NewReader(body))
		if err != nil {
			o.err = err
			return o
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			o.err = err
			return o
		}
		switch resp.StatusCode {
		case http.StatusOK:
			o.hit = resp.Header.Get("X-Hippocrates-Cache") == "hit"
			return o
		case http.StatusTooManyRequests:
			if retries == 1000 {
				o.err = fmt.Errorf("gave up after %d backpressure retries", retries)
				return o
			}
			time.Sleep(50 * time.Millisecond)
		default:
			o.err = fmt.Errorf("%s: HTTP %d: %s", req.Program, resp.StatusCode, data)
			return o
		}
	}
}
