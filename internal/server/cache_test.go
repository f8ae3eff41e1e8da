package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
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
// Every compile is a miss, a source's second job included (it compiles
// the master it keeps); only a job that clones a kept master is a hit.
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
	// its artifact, which makes source 0 the most recently used. Being
	// the source's second job, it compiles the master it keeps: a miss.
	touch := variantReq(0)
	touch.Args = []uint64{2}
	run(t, s, touch)
	if h, m := artifacts(); h != 0 || m != artifactCacheSize+1 {
		t.Fatalf("second job on source 0: %d hits / %d misses, want 0 / %d", h, m, artifactCacheSize+1)
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

// srcArgBug leaves a store of its argument unflushed, so a repair
// rewrites the module and a check of the unrepaired module reports it.
const srcArgBug = `
pm int cell;
pm int flag;

int main(int a) {
	cell = a;
	flag = 1;
	clwb(&flag);
	sfence();
	return a;
}
`

// TestArtifactSecondUseKeepsMaster follows one source through the
// artifact cache. Its first job, a static repair, runs on the module it
// compiled and leaves an artifact with no module. The second job compiles
// again and keeps that compile as the master; it and the later jobs run
// on clones. Every job must answer byte-identically to a sequential
// cli.Run: each check follows a repair meant to run on a clone, and
// would come out clean had that repair rewritten the master instead.
func TestArtifactSecondUseKeepsMaster(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	req := func(mode string, static bool, arg uint64) *cli.Request {
		return &cli.Request{Program: "argbug.pmc", Source: srcArgBug, Mode: mode,
			Static: static, Args: []uint64{arg}, TimeoutMS: 60_000}
	}
	artifacts := func() (hits, misses int64) {
		c := s.Metrics().Cache
		return c.ArtifactHits, c.ArtifactMisses
	}
	jobs := []struct {
		req          *cli.Request
		hits, misses int64
	}{
		{req(cli.ModeRepair, true, 1), 0, 1},
		{req(cli.ModeRepair, false, 2), 0, 2},
		{req(cli.ModeCheck, true, 1), 1, 2},
		{req(cli.ModeRepair, true, 3), 2, 2},
		{req(cli.ModeCheck, false, 2), 3, 2},
	}
	for i, jb := range jobs {
		want := *jb.req
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(&want, root)
		root.End()
		if err != nil {
			t.Fatalf("job %d: sequential run: %v", i, err)
		}
		wantJSON, err := resp.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}

		j := run(t, s, jb.req)
		if j.CacheHit() {
			t.Fatalf("job %d hit the response cache", i)
		}
		if !bytes.Equal(j.ResponseJSON(), wantJSON) {
			t.Errorf("job %d (%s, static %v) differs from a sequential run:\n%s\nvs\n%s",
				i, jb.req.Mode, jb.req.Static, j.ResponseJSON(), wantJSON)
		}
		if h, m := artifacts(); h != jb.hits || m != jb.misses {
			t.Errorf("after job %d: %d artifact hits / %d misses, want %d / %d", i, h, m, jb.hits, jb.misses)
		}
		art, ok := s.artifacts.Get(j.sourceKey)
		if !ok {
			t.Fatalf("job %d: no artifact cached for its source", i)
		}
		if kept := art.master() != nil; kept != (i > 0) {
			t.Errorf("after job %d: artifact keeps a master = %v, want %v", i, kept, i > 0)
		}
	}
	var first struct {
		BugsBefore int  `json:"bugs_before"`
		Fixed      bool `json:"fixed"`
	}
	if err := json.Unmarshal(run(t, s, jobs[0].req).ResponseJSON(), &first); err != nil {
		t.Fatal(err)
	}
	if first.BugsBefore == 0 || !first.Fixed {
		t.Errorf("static repair of srcArgBug: bugs_before=%d fixed=%v, want a repaired bug", first.BugsBefore, first.Fixed)
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

// TestVerdictCacheSharedAcrossStepLimits: crash jobs on one source share
// the artifact's verdict cache, and the step limit decides a recovery
// boot — testdata/slow_recovery.pmc recovers within the default budget
// but not within 2,000 steps. In either order, every job must answer
// exactly what a sequential cli.Run of its request answers.
func TestVerdictCacheSharedAcrossStepLimits(t *testing.T) {
	src, err := os.ReadFile("../../testdata/slow_recovery.pmc")
	if err != nil {
		t.Fatal(err)
	}
	req := func(limit int64) *cli.Request {
		return &cli.Request{Program: "slow_recovery.pmc", Source: string(src), Mode: cli.ModeCrash,
			StepLimit: limit, TimeoutMS: 60_000}
	}
	want := map[int64]string{}
	for _, limit := range []int64{2000, 0} {
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(req(limit), root)
		root.End()
		if err != nil {
			t.Fatalf("steplimit %d: sequential run: %v", limit, err)
		}
		if resp.Crash.Passed != (limit == 0) {
			t.Fatalf("steplimit %d: sequential crash validation passed = %v", limit, resp.Crash.Passed)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			t.Fatal(err)
		}
		want[limit] = normalizeResponse(t, data)
	}
	for _, order := range [][]int64{{2000, 0}, {0, 2000}} {
		s := New(Config{Workers: 1})
		for _, limit := range order {
			j := run(t, s, req(limit))
			if got := normalizeResponse(t, j.ResponseJSON()); got != want[limit] {
				t.Errorf("order %v, steplimit %d: daemon answer differs from a sequential run:\n%s\nvs\n%s",
					order, limit, got, want[limit])
			}
		}
		shutdown(t, s)
	}
}
