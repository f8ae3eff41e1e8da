package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
)

// TestDrainUnderLoadLosesNothing is the daemon's zero-loss proof: a
// daemon drained mid-soak (BeginDrain is exactly what the SIGTERM handler
// runs first) must complete every job it accepted with a response
// byte-identical to a sequential cli.Run of the same request, and must
// answer everything it rejects with 503 + jittered Retry-After — nothing
// hangs, nothing is dropped, nothing is corrupted. Runs under -race in
// the tier-1 suite.
func TestDrainUnderLoadLosesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("drain soak in -short mode")
	}
	const (
		jobs       = 24
		names      = 4
		clients    = 8
		drainAfter = 6 // responses received before the drain begins
	)

	// Requests: one buggy publish program under four names (spreading the
	// source-key shards), each submission cache-busted by a distinct step
	// limit so every accepted job does real repair + crash validation.
	mkReq := func(i int) *cli.Request {
		return &cli.Request{
			Program:     fmt.Sprintf("publish-%d.pmc", i%names),
			Source:      srcPublish,
			Mode:        cli.ModeRepair,
			CrashCheck:  true,
			CrashPoints: 16,
			CrashImages: 4,
			StepLimit:   int64(10_000_000 + i), // distinct request key, identical response bytes
			TimeoutMS:   60_000,
		}
	}

	// Sequential ground truth per program name (the step-limit cache
	// buster never shows up in the response, pinned below).
	want := make([]string, names)
	for n := 0; n < names; n++ {
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(mkReq(n), root)
		root.End()
		if err != nil {
			t.Fatalf("sequential baseline %d: %v", n, err)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[n] = normalizeResponse(t, data)
	}

	s := New(Config{Workers: 4, QueueDepth: jobs})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		responded  atomic.Int64
		drainOnce  sync.Once
		drainedAt  atomic.Int64
		mu         sync.Mutex
		accepted   int
		rejected   int
		mismatches []string
		badReject  []string
		other      []string
	)
	shutdownDone := make(chan error, 1)
	triggerDrain := func() {
		drainOnce.Do(func() {
			drainedAt.Store(responded.Load())
			go func() {
				ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
				defer cancel()
				shutdownDone <- s.Shutdown(ctx)
			}()
		})
	}

	jobCh := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobCh {
				body, err := json.Marshal(mkReq(i))
				if err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Post(ts.URL+"/api/v1/repair", "application/json", strings.NewReader(string(body)))
				if err != nil {
					mu.Lock()
					other = append(other, fmt.Sprintf("job %d: transport: %v", i, err))
					mu.Unlock()
					continue
				}
				data, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr != nil {
					mu.Lock()
					other = append(other, fmt.Sprintf("job %d: read: %v", i, rerr))
					mu.Unlock()
					continue
				}
				if responded.Add(1) >= drainAfter {
					triggerDrain()
				}
				mu.Lock()
				switch resp.StatusCode {
				case http.StatusOK:
					accepted++
					if got := normalizeResponse(t, data); got != want[i%names] {
						mismatches = append(mismatches, fmt.Sprintf("job %d: accepted response diverged from sequential", i))
					}
				case http.StatusServiceUnavailable:
					rejected++
					if !validRetryAfter(resp.Header.Get("Retry-After")) {
						badReject = append(badReject, fmt.Sprintf("job %d: 503 without a valid Retry-After (%q)",
							i, resp.Header.Get("Retry-After")))
					}
				default:
					other = append(other, fmt.Sprintf("job %d: HTTP %d: %.200s", i, resp.StatusCode, data))
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < jobs; i++ {
		jobCh <- i
	}
	close(jobCh)
	wg.Wait()
	triggerDrain() // belt and braces: drain even if every job raced through

	select {
	case err := <-shutdownDone:
		if err != nil {
			t.Fatalf("drain did not complete: %v", err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("drain hung with accepted jobs outstanding")
	}

	t.Logf("drain soak: %d accepted, %d rejected 503 (drain began after %d responses)",
		accepted, rejected, drainedAt.Load())
	for _, m := range mismatches {
		t.Errorf("HARM: %s", m)
	}
	for _, m := range badReject {
		t.Errorf("bad rejection: %s", m)
	}
	for _, m := range other {
		t.Errorf("unexpected outcome: %s", m)
	}
	if accepted == 0 {
		t.Error("drain began before any job was accepted — the scenario proved nothing")
	}
	if rejected == 0 {
		t.Error("no submission was rejected by the drain — the scenario proved nothing")
	}
	if accepted+rejected != jobs || len(other) != 0 {
		t.Errorf("outcome accounting: %d accepted + %d rejected != %d jobs (%d anomalies)",
			accepted, rejected, jobs, len(other))
	}
}
