package server

import (
	"bytes"
	"fmt"
	"testing"

	"hippocrates/internal/cli"
)

// srcEcho is a minimal clean program whose entry takes an argument, so
// requests differing only in Args share one source (one artifact) but
// have distinct response-cache keys.
const srcEcho = `
pm int cell;

int main(int a) {
	cell = a;
	clwb(&cell);
	sfence();
	return a;
}
`

func echoReq(arg uint64) *cli.Request {
	return &cli.Request{Program: "echo.pmc", Source: srcEcho, Mode: cli.ModeCheck, Args: []uint64{arg}}
}

// variantReq is a check request for the i-th distinct source: a comment
// makes the text (and so the artifact key) unique without changing the IR.
func variantReq(i int) *cli.Request {
	return &cli.Request{Program: "echo.pmc", Source: fmt.Sprintf("// variant %d\n%s", i, srcEcho),
		Mode: cli.ModeCheck, Args: []uint64{1}}
}

// run submits req, waits for it, and returns the job, failing on error.
func run(t *testing.T, s *Server, req *cli.Request) *Job {
	t.Helper()
	j, err := s.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job %s: state %s, err %v", j.ID, j.State(), j.Err())
	}
	return j
}

// TestResponseCacheEvictsLRU fills the response cache to its bound, then
// checks that one more distinct request evicts the least recently used
// entry (not a touched one) and that the evicted request, rerun, yields
// the same bytes.
func TestResponseCacheEvictsLRU(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	first := run(t, s, echoReq(0)).ResponseJSON()
	evicted := run(t, s, echoReq(1)).ResponseJSON()
	for i := 2; i < responseCacheSize; i++ {
		run(t, s, echoReq(uint64(i)))
	}
	if n := s.responses.Len(); n != responseCacheSize {
		t.Fatalf("response cache holds %d entries, want %d", n, responseCacheSize)
	}
	if !run(t, s, echoReq(0)).CacheHit() {
		t.Fatal("request 0 missed a full but not yet overflowing cache")
	}
	// Request 0 was just touched, so the overflow evicts request 1.
	run(t, s, echoReq(responseCacheSize))
	if n := s.responses.Len(); n != responseCacheSize {
		t.Errorf("response cache holds %d entries after overflow, want %d", n, responseCacheSize)
	}
	j0 := run(t, s, echoReq(0))
	if !j0.CacheHit() {
		t.Error("touched request 0 was evicted")
	}
	if !bytes.Equal(j0.ResponseJSON(), first) {
		t.Error("cached response for request 0 changed")
	}
	j1 := run(t, s, echoReq(1))
	if j1.CacheHit() {
		t.Error("least recently used request 1 survived the overflow")
	}
	if !bytes.Equal(j1.ResponseJSON(), evicted) {
		t.Errorf("recomputed response after eviction differs:\n%s\nvs\n%s", j1.ResponseJSON(), evicted)
	}
}

// TestArtifactCacheEvictsLRU fills the artifact cache with distinct
// sources, overflows it by one, and checks through /metrics counters that
// the least recently used source recompiles while a touched one does not.
func TestArtifactCacheEvictsLRU(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	for i := 0; i < artifactCacheSize; i++ {
		run(t, s, variantReq(i))
	}
	artifacts := func() (hits, misses int64) {
		c := s.Metrics().Cache
		return c.ArtifactHits, c.ArtifactMisses
	}
	if h, m := artifacts(); h != 0 || m != artifactCacheSize {
		t.Fatalf("after %d distinct sources: %d hits / %d misses", artifactCacheSize, h, m)
	}
	// A different request on source 0 misses the response cache but finds
	// its artifact, which makes source 0 the most recently used.
	touch := variantReq(0)
	touch.Args = []uint64{2}
	run(t, s, touch)
	if h, _ := artifacts(); h != 1 {
		t.Fatalf("source 0 missed the artifact cache (%d hits)", h)
	}
	run(t, s, variantReq(artifactCacheSize)) // evicts source 1
	if n := s.artifacts.Len(); n != artifactCacheSize {
		t.Errorf("artifact cache holds %d entries, want %d", n, artifactCacheSize)
	}

	h0, m0 := artifacts()
	again := variantReq(0)
	again.Args = []uint64{3}
	run(t, s, again)
	if h, m := artifacts(); h != h0+1 || m != m0 {
		t.Errorf("touched source 0: %d hits / %d misses, want %d / %d", h, m, h0+1, m0)
	}
	lru := variantReq(1)
	lru.Args = []uint64{3}
	run(t, s, lru)
	if h, m := artifacts(); h != h0+1 || m != m0+1 {
		t.Errorf("evicted source 1: %d hits / %d misses, want %d / %d", h, m, h0+1, m0+1)
	}
}

// TestVerdictCountersMonotonic runs crash-validated repairs of more
// distinct sources than the artifact cache holds, so artifacts (and the
// verdict caches they carry) are evicted along the way. The verdict
// counters are Prometheus counters: no scrape may ever read less than the
// one before it.
func TestVerdictCountersMonotonic(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	var lastHits, lastMisses int64
	for i := 0; i < artifactCacheSize+8; i++ {
		req := publishReq()
		req.Source = fmt.Sprintf("// variant %d\n%s", i, srcPublish)
		run(t, s, req)
		c := s.Metrics().Cache
		if c.VerdictHits < lastHits || c.VerdictMisses < lastMisses {
			t.Fatalf("after source %d: verdict counters went backwards: %d/%d -> %d/%d",
				i, lastHits, lastMisses, c.VerdictHits, c.VerdictMisses)
		}
		if c.VerdictMisses == lastMisses {
			t.Fatalf("source %d made no verdict lookups", i)
		}
		lastHits, lastMisses = c.VerdictHits, c.VerdictMisses
	}
}
