package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"hippocrates/internal/cli"
)

// srcPublish is the canonical unflushed-payload bug with both recovery
// entries, so repair + crash validation exercise the whole service path.
const srcPublish = `
pm int payload;
pm int flag;

int invariant_check() {
	if (payload != 0 && payload != 42) { return 1; }
	if (flag != 0 && flag != 1) { return 2; }
	return 0;
}

int crash_check(int completed) {
	if (completed >= 1) {
		if (payload != 42) { return 1; }
		if (flag != 1) { return 2; }
	}
	return 0;
}

int main() {
	payload = 42; // missing flush
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`

// srcSpin burns its whole step budget in a tight loop — the test's stand-in
// for a long job that keeps a worker busy.
const srcSpin = `
int main() {
	int x = 0;
	while (x >= 0) { x = 1; }
	return x;
}
`

// srcOverPersist is clean under the bug finder but flushes every store
// twice, so an optimize request yields a non-trivial edit set that must be
// proven by crashsim verdict identity (both recovery entries are present).
const srcOverPersist = `
pm int slot;

int invariant_check() {
	if (slot < 0 || slot > 6) { return 1; }
	return 0;
}

int crash_check(int completed) {
	int done = completed - 1;
	if (done < 0) { done = 0; }
	if (done > 6) { done = 6; }
	if (slot != done) { return 1; }
	return 0;
}

int main() {
	slot = 0;
	clwb(&slot);
	sfence();
	pm_checkpoint();
	int i = 1;
	while (i <= 6) {
		slot = i;
		clwb(&slot);
		clwb(&slot);
		sfence();
		pm_checkpoint();
		i = i + 1;
	}
	return 0;
}
`

func publishReq() *cli.Request {
	return &cli.Request{
		Program:     "publish.pmc",
		Source:      srcPublish,
		Mode:        cli.ModeRepair,
		CrashCheck:  true,
		CrashPoints: 16,
		CrashImages: 4,
		StepLimit:   10_000_000,
	}
}

func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Minute):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

func shutdown(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestResponseCacheServesByteIdentical: the second identical submit must be
// answered from the response cache, byte-for-byte, without queueing, and
// the response must satisfy the checked-in schema.
func TestResponseCacheServesByteIdentical(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	j1, err := s.Submit(publishReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j1)
	if j1.State() != StateDone {
		t.Fatalf("job 1: state %s, err %v", j1.State(), j1.Err())
	}
	if j1.CacheHit() {
		t.Fatal("job 1 claims a cache hit on an empty cache")
	}
	first := j1.ResponseJSON()
	if err := ValidateResponse(first); err != nil {
		t.Fatalf("response violates schema: %v", err)
	}

	j2, err := s.Submit(publishReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if !j2.CacheHit() {
		t.Error("identical resubmit missed the response cache")
	}
	if !bytes.Equal(first, j2.ResponseJSON()) {
		t.Errorf("cached response differs: %d vs %d bytes", len(first), len(j2.ResponseJSON()))
	}

	// The repaired program must actually be repaired.
	var doc struct {
		Fixed      bool `json:"fixed"`
		BugsBefore int  `json:"bugs_before"`
		Crash      *struct {
			Passed bool `json:"passed"`
		} `json:"crash"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BugsBefore == 0 || !doc.Fixed || doc.Crash == nil || !doc.Crash.Passed {
		t.Errorf("unexpected verdict: bugs_before=%d fixed=%v crash=%+v",
			doc.BugsBefore, doc.Fixed, doc.Crash)
	}
}

// TestOptimizeRoundTripValidates: an optimize request on a clean
// over-persisting program must come back schema-valid with a populated
// optimize document — at least one flush deleted, proven by crashsim —
// and the always-present lints array.
func TestOptimizeRoundTripValidates(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	j, err := s.Submit(&cli.Request{
		Program:     "overpersist.pmc",
		Source:      srcOverPersist,
		Mode:        cli.ModeCheck,
		Optimize:    true,
		CrashPoints: 16,
		CrashImages: 4,
		StepLimit:   10_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job: state %s, err %v", j.State(), j.Err())
	}
	body := j.ResponseJSON()
	if err := ValidateResponse(body); err != nil {
		t.Fatalf("optimize response violates schema: %v", err)
	}

	var doc struct {
		BugsBefore int `json:"bugs_before"`
		Lints      []struct {
			Kind string `json:"kind"`
			Site string `json:"site"`
		} `json:"lints"`
		Optimize *struct {
			Candidates     int     `json:"candidates"`
			Deleted        int     `json:"deleted"`
			Rejected       int     `json:"rejected"`
			SimBefore      float64 `json:"sim_ns_before"`
			SimAfter       float64 `json:"sim_ns_after"`
			CrashsimProven bool    `json:"crashsim_proven"`
			CrashPoints    int     `json:"crash_points"`
		} `json:"optimize"`
		OptimizedIR string `json:"optimized_ir"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BugsBefore != 0 {
		t.Errorf("program should be clean, got %d bugs", doc.BugsBefore)
	}
	if doc.Optimize == nil {
		t.Fatal("response is missing the optimize document")
	}
	if doc.Optimize.Deleted < 1 {
		t.Errorf("expected at least one deleted flush, got %+v", doc.Optimize)
	}
	if !doc.Optimize.CrashsimProven || doc.Optimize.CrashPoints == 0 {
		t.Errorf("edits must be crashsim-proven: %+v", doc.Optimize)
	}
	if doc.Optimize.SimAfter >= doc.Optimize.SimBefore {
		t.Errorf("no simulated-cost reduction: before %.0f, after %.0f",
			doc.Optimize.SimBefore, doc.Optimize.SimAfter)
	}
	if doc.OptimizedIR == "" {
		t.Error("accepted edits but no optimized_ir in the response")
	}
	// The doubled flush is the only lint; once deleted it must be gone.
	if len(doc.Lints) != 0 {
		t.Errorf("expected no residual lints after optimize, got %v", doc.Lints)
	}
}

// srcMTPublish is the cross-thread unordered-publish showcase: clean
// under the default schedule, buggy under an explored interleaving.
const srcMTPublish = `
struct shard {
	int stats;
	int val;
	byte pad[48];
};

struct root {
	shard s;
	byte *head;
};

void worker() {
	root *r = (root*) pm_root(sizeof(root));
	r->s.val = 42;
}

int main() {
	root *r = (root*) pm_root(sizeof(root));
	int t = spawn(worker);
	r->s.stats = r->s.stats + 1;
	clwb((byte*) &r->s.stats);
	sfence();
	join(t);
	r->head = (byte*) &r->s;
	clwb((byte*) &r->head);
	sfence();
	pm_checkpoint();
	return r->s.val;
}

int invariant_check() {
	root *r = (root*) pm_root(sizeof(root));
	if ((int) r->head != 0) {
		shard *s = (shard*) r->head;
		if (s->val != 42) { return 1; }
	}
	return 0;
}

int crash_check(int completed) {
	root *r = (root*) pm_root(sizeof(root));
	if (completed >= 1) {
		if ((int) r->head == 0) { return 2; }
	}
	return invariant_check();
}
`

// TestThreadsRoundTripValidates: an interleaving-aware repair request
// must come back schema-valid with a populated schedules document, a
// replayable buggy-schedule id, per-interleaving crash sweeps that all
// pass, and byte-identical bytes from the response cache on resubmit.
func TestThreadsRoundTripValidates(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)

	mtReq := func() *cli.Request {
		return &cli.Request{
			Program:      "mtpublish.pmc",
			Source:       srcMTPublish,
			Mode:         cli.ModeRepair,
			Threads:      true,
			MaxSchedules: 16,
			CrashCheck:   true,
			CrashPoints:  16,
			CrashImages:  4,
			StepLimit:    10_000_000,
		}
	}
	j, err := s.Submit(mtReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	if j.State() != StateDone {
		t.Fatalf("job: state %s, err %v", j.State(), j.Err())
	}
	body := j.ResponseJSON()
	if err := ValidateResponse(body); err != nil {
		t.Fatalf("threads response violates schema: %v", err)
	}

	var doc struct {
		Fixed      bool `json:"fixed"`
		BugsBefore int  `json:"bugs_before"`
		Schedules  *struct {
			Threads       int    `json:"threads"`
			BuggySchedule string `json:"buggy_schedule"`
			Stats         struct {
				Explored    int `json:"schedules_explored"`
				CrashPoints int `json:"crash_points"`
			} `json:"stats"`
		} `json:"schedules"`
		CrashBySchedule []struct {
			Schedule string `json:"schedule"`
			Report   struct {
				Passed bool `json:"passed"`
			} `json:"report"`
		} `json:"crash_by_schedule"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.BugsBefore == 0 || !doc.Fixed {
		t.Errorf("unexpected verdict: bugs_before=%d fixed=%v", doc.BugsBefore, doc.Fixed)
	}
	if doc.Schedules == nil {
		t.Fatal("response is missing the schedules document")
	}
	if doc.Schedules.Threads != 2 || doc.Schedules.BuggySchedule == "" {
		t.Errorf("unexpected schedules doc: %+v", doc.Schedules)
	}
	if doc.Schedules.Stats.Explored == 0 || doc.Schedules.Stats.CrashPoints == 0 {
		t.Errorf("empty exploration accounting: %+v", doc.Schedules.Stats)
	}
	if len(doc.CrashBySchedule) != doc.Schedules.Stats.Explored {
		t.Errorf("crash sweeps cover %d schedules, explored %d",
			len(doc.CrashBySchedule), doc.Schedules.Stats.Explored)
	}
	for _, c := range doc.CrashBySchedule {
		if !c.Report.Passed {
			t.Errorf("schedule %s failed post-repair crash validation", c.Schedule)
		}
	}

	// The exploration's accounting must surface in the service telemetry:
	// the recorder merges each job's span counters, so /metrics carries
	// the schedule family after one threads job.
	counters := s.Metrics().Counters
	for _, key := range []string{"schedule.explored", "schedule.crash_points"} {
		if counters[key] <= 0 {
			t.Errorf("counter %s = %d after a threads job, want > 0", key, counters[key])
		}
	}
	// mt-publish's ops all conflict, so its legitimate pruned count is
	// zero — assert the counter is recorded, not its value.
	if _, ok := counters["schedule.pruned"]; !ok {
		t.Error("counter schedule.pruned missing after a threads job")
	}
	prom, err := s.PromText()
	if err != nil {
		t.Fatal(err)
	}
	if want := `hippocratesd_pipeline_events_total{event="schedule.explored"}`; !bytes.Contains(prom, []byte(want)) {
		t.Errorf("/metrics exposition is missing %s", want)
	}

	j2, err := s.Submit(mtReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j2)
	if !j2.CacheHit() {
		t.Error("identical threads resubmit missed the response cache")
	}
	if !bytes.Equal(body, j2.ResponseJSON()) {
		t.Error("cached threads response is not byte-identical")
	}
}

// TestBackpressure: with one worker and a one-deep queue, a burst of slow
// jobs must hit ErrQueueFull instead of buffering without bound, and the
// accepted jobs must still run to completion.
func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1})
	defer shutdown(t, s)

	spin := func() *cli.Request {
		return &cli.Request{Program: "spin.pmc", Source: srcSpin, Mode: cli.ModeRepair, StepLimit: 20_000_000}
	}
	var accepted []*Job
	var rejected int
	// Worker busy with job 1, queue holds job 2 → a burst of 6 must see
	// at least one rejection (the exact count depends on dequeue timing).
	for i := 0; i < 6; i++ {
		j, err := s.Submit(spin())
		switch {
		case err == nil:
			accepted = append(accepted, j)
		case errors.Is(err, ErrQueueFull):
			rejected++
		default:
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	if rejected == 0 {
		t.Error("6-job burst against a 1x1 pool saw no ErrQueueFull")
	}
	if len(accepted) == 0 {
		t.Fatal("every submit was rejected")
	}
	for _, j := range accepted {
		waitDone(t, j)
		// The spin program exhausts its step budget: the job fails, alone.
		if j.State() != StateFailed {
			t.Errorf("%s: state %s, want failed", j.ID, j.State())
		}
	}
	if got := s.Metrics().Queue.Rejected; got != int64(rejected) {
		t.Errorf("metrics report %d rejections, submit saw %d", got, rejected)
	}
}

// TestPoisonedJobFailsAlone: a job that cannot compile and a job that dies
// at runtime each fail in isolation; the daemon keeps serving and the next
// good job succeeds on the same worker.
func TestPoisonedJobFailsAlone(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)

	bad, err := s.Submit(&cli.Request{Program: "broken.pmc", Source: "int main( {"})
	if err != nil {
		t.Fatal(err)
	}
	noEntry, err := s.Submit(&cli.Request{Program: "noentry.pmc", Source: "int helper() { return 0; }", Entry: "main"})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(publishReq())
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, bad)
	waitDone(t, noEntry)
	waitDone(t, good)

	if bad.State() != StateFailed || bad.Err() == nil {
		t.Errorf("compile-error job: state %s, err %v", bad.State(), bad.Err())
	}
	if noEntry.State() != StateFailed || noEntry.Err() == nil {
		t.Errorf("missing-entry job: state %s, err %v", noEntry.State(), noEntry.Err())
	}
	if good.State() != StateDone {
		t.Errorf("good job after two poisoned ones: state %s, err %v", good.State(), good.Err())
	}
	m := s.Metrics()
	if m.Jobs.Failed != 2 || m.Jobs.Completed != 1 {
		t.Errorf("metrics: failed=%d completed=%d, want 2/1", m.Jobs.Failed, m.Jobs.Completed)
	}
}

// TestDrain: Shutdown finishes accepted jobs and rejects new submissions.
func TestDrain(t *testing.T) {
	s := New(Config{Workers: 2})

	var jobs []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(publishReq())
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	shutdown(t, s)
	for _, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Errorf("%s still pending after drain", j.ID)
		}
		if j.State() != StateDone {
			t.Errorf("%s: state %s after drain, err %v", j.ID, j.State(), j.Err())
		}
	}
	if _, err := s.Submit(publishReq()); !errors.Is(err, ErrDraining) {
		t.Errorf("submit while draining: err %v, want ErrDraining", err)
	}
}

// TestMetricsSchema: the in-process snapshot that GET /metrics renders
// keeps the fields its readers use and reports the cache traffic the
// workload implies, and the daemon serves its state at /metrics only
// (the JSON twin route is gone).
func TestMetricsSchema(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	for i := 0; i < 3; i++ {
		j, err := s.Submit(publishReq())
		if err != nil {
			t.Fatal(err)
		}
		waitDone(t, j)
	}
	m := s.Metrics()
	if m.Cache.ResponseHits != 2 || m.Cache.ArtifactMisses != 1 {
		t.Errorf("cache traffic: %+v, want 2 response hits, 1 artifact miss", m.Cache)
	}
	if m.Jobs.Completed != 3 || m.Jobs.Cached != 2 || m.Jobs.Failed != 0 {
		t.Errorf("job counts: %+v, want 3 completed, 2 cached, 0 failed", m.Jobs)
	}
	if len(m.Phases) == 0 || m.Phases[0].Name != "job" || m.Phases[0].Count != 1 || m.Phases[0].SumNS <= 0 {
		t.Errorf("no usable \"job\" phase row in %+v", m.Phases)
	}
	found := false
	for _, w := range m.Windows {
		if w.Phase == "job" && w.Window == "1m" && w.Count >= 1 && w.P50NS > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no usable \"job\" 1m latency window in %+v", m.Windows)
	}

	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != PromContentType {
		t.Errorf("GET /metrics: %d %q, want 200 %q", resp.StatusCode, resp.Header.Get("Content-Type"), PromContentType)
	}
	resp, err = http.Get(ts.URL + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /metrics.json: %d, want 404 (the JSON twin is removed)", resp.StatusCode)
	}
}

// TestHTTPRoundTrip drives the actual HTTP mux: synchronous repair with
// cache headers, async submit + poll, span retrieval, health.
func TestHTTPRoundTrip(t *testing.T) {
	s := New(Config{Workers: 2})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, _ := json.Marshal(publishReq())
	resp, err := http.Post(ts.URL+"/api/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /api/v1/repair: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Hippocrates-Cache"); got != "miss" {
		t.Errorf("first POST cache header %q, want miss", got)
	}
	jobID := resp.Header.Get("X-Hippocrates-Job")
	if jobID == "" {
		t.Fatal("no X-Hippocrates-Job header")
	}

	// The job's spans are retrievable and carry the pipeline phases.
	spansResp, err := http.Get(ts.URL + "/api/v1/jobs/" + jobID + "/spans")
	if err != nil {
		t.Fatal(err)
	}
	defer spansResp.Body.Close()
	var spansDoc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(spansResp.Body).Decode(&spansDoc); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range spansDoc.Spans {
		names[sp.Name] = true
	}
	for _, phase := range []string{"job", "trace", "detect", "plan", "apply", "revalidate", "crashsim"} {
		if !names[phase] {
			t.Errorf("span tree for %s is missing %q", jobID, phase)
		}
	}

	// Async submit of the same request: answered from the cache, done at once.
	asyncResp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer asyncResp.Body.Close()
	if asyncResp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /api/v1/jobs: %d", asyncResp.StatusCode)
	}
	if got := asyncResp.Header.Get("X-Hippocrates-Cache"); got != "hit" {
		t.Errorf("async resubmit cache header %q, want hit", got)
	}
	var acc struct {
		JobID string `json:"job_id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(asyncResp.Body).Decode(&acc); err != nil {
		t.Fatal(err)
	}
	jobResp, err := http.Get(ts.URL + "/api/v1/jobs/" + acc.JobID)
	if err != nil {
		t.Fatal(err)
	}
	defer jobResp.Body.Close()
	var jd struct {
		State    string          `json:"state"`
		CacheHit bool            `json:"cache_hit"`
		Response json.RawMessage `json:"response"`
	}
	if err := json.NewDecoder(jobResp.Body).Decode(&jd); err != nil {
		t.Fatal(err)
	}
	if jd.State != StateDone || !jd.CacheHit || len(jd.Response) == 0 {
		t.Errorf("async job doc: state=%s cache_hit=%v response=%d bytes",
			jd.State, jd.CacheHit, len(jd.Response))
	}

	// Unknown jobs are client errors, not crashes (TestRequestBodyAcceptance
	// pins which request bodies are).
	missing, err := http.Get(ts.URL + "/api/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	missing.Body.Close()
	if missing.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: %d, want 404", missing.StatusCode)
	}

	health, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	health.Body.Close()
	if health.StatusCode != http.StatusOK {
		t.Errorf("/healthz: %d", health.StatusCode)
	}
}
