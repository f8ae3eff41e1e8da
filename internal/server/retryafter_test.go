package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
)

// validRetryAfter reports whether s is an integer inside the jitter
// range every backpressure path must use.
func validRetryAfter(s string) bool {
	n, err := strconv.Atoi(s)
	return err == nil && n >= RetryAfterMin && n <= RetryAfterMax
}

// spinReq is a job that parks a worker until its wall-clock deadline
// kills it — the test's stand-in for slow traffic.
func spinReq() *cli.Request {
	return &cli.Request{
		Program:   "spin.pmc",
		Source:    srcSpin,
		Mode:      cli.ModeCheck,
		StepLimit: 2_000_000_000,
		TimeoutMS: 1500,
	}
}

// TestRetryAfterJitter: 429 rejections must carry a Retry-After inside
// the jitter range, and repeated rejections must not all carry the same
// value — a constant would re-synchronize every backed-off client onto
// the same retry instant and re-stampede a recovering shard. A rejected
// request retried until the shard frees up must then be answered
// exactly as a sequential run answers it.
func TestRetryAfterJitter(t *testing.T) {
	// One worker, one queue slot, and spin jobs that park it: once the
	// shard is saturated every further submit is a deterministic 429.
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if _, err := s.Submit(spinReq()); err != nil {
		t.Fatal(err)
	}
	// Wait for the worker to dequeue the first spin, then fill the slot
	// behind it: one spin running, one queued — the shard is full.
	deadline := time.Now().Add(5 * time.Second)
	for s.ShardDepths()[0] > 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never dequeued the first spin")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(spinReq()); err != nil {
		t.Fatal(err)
	}

	body, err := json.Marshal(spinReq())
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	got429 := 0
	for i := 0; i < 200 && got429 < 40; i++ {
		// The async path answers immediately whether accepted or full.
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			continue
		}
		got429++
		ra := resp.Header.Get("Retry-After")
		if !validRetryAfter(ra) {
			t.Fatalf("429 Retry-After %q outside [%d,%d]", ra, RetryAfterMin, RetryAfterMax)
		}
		seen[ra] = true
	}
	if got429 < 40 {
		t.Fatalf("saturated shard produced only %d 429s", got429)
	}
	// 40 draws from a 3-value jitter: P(all equal) = 3^-39.
	if len(seen) < 2 {
		t.Errorf("%d rejections all carried the same Retry-After — jitter missing", got429)
	}

	// A rejection does no harm: a real repair the full shard turns away is
	// accepted once the spins die, and answers exactly as a sequential
	// cli.Run of the same request does.
	pub := publishReq()
	pub.TimeoutMS = 60_000
	pubBody, err := json.Marshal(pub)
	if err != nil {
		t.Fatal(err)
	}
	var accepted []byte
	rejected := 0
	for deadline := time.Now().Add(time.Minute); accepted == nil; {
		resp, err := http.Post(ts.URL+"/api/v1/repair", "application/json", bytes.NewReader(pubBody))
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			accepted = data
			continue
		}
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("repair retry: HTTP %d: %.200s", resp.StatusCode, data)
		}
		if ra := resp.Header.Get("Retry-After"); !validRetryAfter(ra) {
			t.Fatalf("429 Retry-After %q outside [%d,%d]", ra, RetryAfterMin, RetryAfterMax)
		}
		rejected++
		if time.Now().After(deadline) {
			t.Fatalf("repair still rejected after %d retries", rejected)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if rejected == 0 {
		t.Error("the saturated shard accepted the repair at once — the retry case proved nothing")
	}
	rec := obs.New()
	root := rec.StartSpan("job")
	seq, err := cli.Run(pub, root)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	seqJSON, err := seq.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	if normalizeResponse(t, accepted) != normalizeResponse(t, seqJSON) {
		t.Error("a repair accepted after a 429 diverged from the sequential run")
	}
}
