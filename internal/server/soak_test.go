package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
	"hippocrates/internal/server/loadgen"
)

// TestSoakConcurrentMatchesSequential is the service's determinism proof:
// 32 jobs over the crashsim-able corpus, 16+ in flight at once under
// -race, must produce responses byte-identical to sequential one-shot
// cli.Run invocations of the same requests — all while every
// observability endpoint is scraped continuously. The only tolerated
// difference is the crashsim `stats` accounting (cache hits, images
// built, COW page counters), which legitimately depends on which jobs
// shared a verdict cache; normalizeResponse zeroes it on both sides
// before comparing.
func TestSoakConcurrentMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus soak in -short mode")
	}
	base := loadgen.CorpusRequests()
	if len(base) < 10 {
		t.Fatalf("corpus yielded only %d crashsim-able targets", len(base))
	}
	// Pin the budgets the daemon would otherwise default for us, so the
	// sequential baseline runs under identical options.
	clone := func(i int) *cli.Request {
		c := *base[i%len(base)]
		c.TimeoutMS = 60_000
		return &c
	}

	// Sequential ground truth: one fresh recorder per run, no shared
	// caches, exactly what the CLI one-shot path does.
	want := make([]string, len(base))
	for i := range base {
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(clone(i), root)
		root.End()
		if err != nil {
			t.Fatalf("sequential %s: %v", base[i].Program, err)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = normalizeResponse(t, data)
	}

	const jobs = 32
	s := New(Config{Workers: 8, QueueDepth: jobs})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	// Scrape every observability endpoint continuously while the soak
	// runs: under -race this proves a Prometheus scraper polling a loaded
	// daemon never races the job pipeline, and every body served mid-load
	// is well-formed.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	stopScrape := make(chan struct{})
	var scrapeWG sync.WaitGroup
	scrapeErr := make(chan error, 1)
	reportScrape := func(err error) {
		select {
		case scrapeErr <- err:
		default:
		}
	}
	for _, path := range []string{"/metrics", "/healthz", "/api/v1/debug/flightrecorder"} {
		scrapeWG.Add(1)
		go func(path string) {
			defer scrapeWG.Done()
			for {
				select {
				case <-stopScrape:
					return
				default:
				}
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					reportScrape(fmt.Errorf("GET %s: %w", path, err))
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					reportScrape(fmt.Errorf("GET %s: %w", path, err))
					return
				}
				if resp.StatusCode != http.StatusOK {
					reportScrape(fmt.Errorf("GET %s: HTTP %d: %.200s", path, resp.StatusCode, body))
					return
				}
				var check error
				switch path {
				case "/metrics":
					check = obs.LintProm(body)
				case "/api/v1/debug/flightrecorder":
					check = ValidateFlightRecorder(body)
				default:
					if !json.Valid(body) {
						check = fmt.Errorf("invalid JSON: %.200s", body)
					}
				}
				if check != nil {
					reportScrape(fmt.Errorf("GET %s mid-soak: %w", path, check))
					return
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(path)
	}

	got := make([]string, jobs)
	errs := make([]error, jobs)
	var wg sync.WaitGroup
	for i := 0; i < jobs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, err := s.Submit(clone(i))
			if err != nil {
				errs[i] = err
				return
			}
			select {
			case <-j.Done():
			case <-time.After(4 * time.Minute):
				errs[i] = fmt.Errorf("job %s timed out", j.ID)
				return
			}
			if err := j.Err(); err != nil {
				errs[i] = err
				return
			}
			got[i] = normalizeResponse(t, j.ResponseJSON())
		}(i)
	}
	wg.Wait()
	close(stopScrape)
	scrapeWG.Wait()
	select {
	case err := <-scrapeErr:
		t.Errorf("concurrent scrape: %v", err)
	default:
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent %s: %v", base[i%len(base)].Program, err)
		}
	}
	for i := 0; i < jobs; i++ {
		if got[i] != want[i%len(base)] {
			t.Errorf("%s: concurrent response diverged from sequential run\nconcurrent: %.400s\nsequential: %.400s",
				base[i%len(base)].Program, got[i], want[i%len(base)])
		}
	}
}

// TestCorpusReplayWarmRoundHitsCache replays the crashsim-able corpus
// against a live daemon twice: the warm round must be answered entirely
// from the response cache, and must finish in less wall time than the
// cold round that did the work.
func TestCorpusReplayWarmRoundHitsCache(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus replay in -short mode")
	}
	s := New(Config{})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	reqs := loadgen.CorpusRequests()
	cold, err := replayRound(ts.URL, reqs)
	if err != nil {
		t.Fatalf("cold round: %v", err)
	}
	warm, err := replayRound(ts.URL, reqs)
	if err != nil {
		t.Fatalf("warm round: %v", err)
	}
	if warm.CacheHits != warm.Jobs {
		t.Errorf("warm round: %d of %d jobs hit the response cache, want all", warm.CacheHits, warm.Jobs)
	}
	if warm.WallMS >= cold.WallMS {
		t.Errorf("warm round took %.1f ms, not less than the cold round's %.1f ms", warm.WallMS, cold.WallMS)
	}
	t.Logf("%d jobs: cold %.1f ms (%d hits), warm %.1f ms", cold.Jobs, cold.WallMS, cold.CacheHits, warm.WallMS)
}

// roundStats is one replay round as the client observed it.
type roundStats struct {
	Jobs     int
	Failures int
	// CacheHits counts accepted jobs the response cache answered
	// (X-Hippocrates-Cache: hit).
	CacheHits int
	WallMS    float64
}

// replayRound pushes every request through the daemon at baseURL once,
// eight at a time, retrying 429 backpressure rejections with a short
// backoff.
func replayRound(baseURL string, reqs []*cli.Request) (*roundStats, error) {
	const workers = 8
	client := &http.Client{Timeout: 5 * time.Minute}
	type outcome struct {
		hit bool
		err error
	}
	jobs := make(chan *cli.Request)
	// Sized to the jobs, so no worker blocks on a send.
	results := make(chan outcome, len(reqs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for req := range jobs {
				hit, err := postRetrying(client, baseURL, req)
				results <- outcome{hit, err}
			}
		}()
	}
	start := time.Now()
	for _, req := range reqs {
		jobs <- req
	}
	close(jobs)
	wg.Wait()
	close(results)
	rs := &roundStats{Jobs: len(reqs), WallMS: float64(time.Since(start).Nanoseconds()) / 1e6}
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

// postRetrying submits one repair request, retrying 429 rejections, and
// reports whether the response cache answered it.
func postRetrying(client *http.Client, baseURL string, req *cli.Request) (bool, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return false, err
	}
	for retries := 0; ; retries++ {
		resp, err := client.Post(baseURL+"/api/v1/repair", "application/json", bytes.NewReader(body))
		if err != nil {
			return false, err
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return false, err
		}
		switch resp.StatusCode {
		case http.StatusOK:
			return resp.Header.Get("X-Hippocrates-Cache") == "hit", nil
		case http.StatusTooManyRequests:
			if retries == 1000 {
				return false, fmt.Errorf("gave up after %d backpressure retries", retries)
			}
			time.Sleep(50 * time.Millisecond)
		default:
			return false, fmt.Errorf("%s: HTTP %d: %s", req.Program, resp.StatusCode, data)
		}
	}
}

// normalizeResponse strips the crashsim stats accounting — the one
// deliberately non-deterministic corner of the response — and re-marshals
// with sorted keys, so equal pipelines compare equal regardless of cache
// sharing.
func normalizeResponse(t *testing.T, data []byte) string {
	t.Helper()
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("normalize: %v", err)
	}
	if crash, ok := doc["crash"].(map[string]any); ok {
		delete(crash, "stats")
	}
	if rounds, ok := doc["crash_rounds"].([]any); ok {
		for _, r := range rounds {
			if round, ok := r.(map[string]any); ok {
				delete(round, "stats")
			}
		}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestSoakStaticSummaryReuse drives the daemon-wide summary store: 8
// source variants that share four identical helper functions, each
// submitted in both static modes concurrently. The store must replay
// helper summaries across jobs (hits > 0) while every response stays
// byte-identical to a storeless sequential cli.Run of the same request —
// the incremental cache may only save time, never change an answer.
func TestSoakStaticSummaryReuse(t *testing.T) {
	variant := func(v int) string {
		return fmt.Sprintf(`
pm int cell[64];
void put0(int *p, int v) { *p = v; clwb(p); sfence(); }
void put1(int *p, int v) { *p = v + 1; clwb(p); sfence(); }
void put2(int *p, int v) { *p = v + 2; clwb(p); sfence(); }
void put3(int *p, int v) { *p = v + 3; clwb(p); sfence(); }
int main() {
	put0(&cell[0], %d);
	put1(&cell[1], %d);
	put2(&cell[2], %d);
	put3(&cell[3], %d);
	cell[8] = %d;
	pm_checkpoint();
	return cell[8];
}
`, v, v, v, v, v)
	}
	const variants = 8
	var reqs []*cli.Request
	for v := 0; v < variants; v++ {
		for _, mode := range []string{cli.ModeCheck, cli.ModeRepair} {
			reqs = append(reqs, &cli.Request{
				Program:   fmt.Sprintf("soak%d.pmc", v),
				Source:    variant(v),
				Mode:      mode,
				Static:    true,
				TimeoutMS: 60_000,
			})
		}
	}

	// Sequential ground truth: fresh cli.Run per request, no store at all.
	want := make([]string, len(reqs))
	for i, q := range reqs {
		c := *q
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(&c, root)
		root.End()
		if err != nil {
			t.Fatalf("sequential %s %s: %v", q.Mode, q.Program, err)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = string(data)
	}

	s := New(Config{Workers: 4, QueueDepth: len(reqs)})
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	got := make([]string, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i := range reqs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := *reqs[i]
			j, err := s.Submit(&c)
			if err != nil {
				errs[i] = err
				return
			}
			select {
			case <-j.Done():
			case <-time.After(time.Minute):
				errs[i] = fmt.Errorf("job %s timed out", j.ID)
				return
			}
			if err := j.Err(); err != nil {
				errs[i] = err
				return
			}
			got[i] = string(j.ResponseJSON())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("concurrent %s %s: %v", reqs[i].Mode, reqs[i].Program, err)
		}
	}
	for i := range reqs {
		if got[i] != want[i] {
			t.Errorf("%s %s: daemon response diverged from storeless cli.Run\ndaemon:     %.400s\nsequential: %.400s",
				reqs[i].Mode, reqs[i].Program, got[i], want[i])
		}
	}

	// The helpers are byte-identical across all 16 jobs: the shared store
	// must have replayed summaries and constraint lists, not just stored
	// them. Exact counts depend on scheduling; reuse itself must not.
	ss := s.summaries.Stats()
	if ss.SummaryHits == 0 || ss.ConsHits == 0 {
		t.Errorf("daemon summary store saw no reuse across same-helper jobs: %+v", ss)
	}
	if ss.Summaries == 0 || ss.Constraints == 0 {
		t.Errorf("daemon summary store retained nothing: %+v", ss)
	}
}
