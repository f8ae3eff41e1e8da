package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/fleet"
	"hippocrates/internal/obs"
	"hippocrates/internal/server/loadgen"
)

// Result is one scenario's verdict. A scenario passes iff Harm,
// BadRejects, and Failures are all empty and every job was accepted —
// chaos may slow the fleet down, but it must never change an answer or
// lose an accepted job.
type Result struct {
	Scenario   string         `json:"scenario"`
	Jobs       int            `json:"jobs"`
	Accepted   int            `json:"accepted"`
	Retries429 int            `json:"retries_429"`
	Retries503 int            `json:"retries_503"`
	WallMS     float64        `json:"wall_ms"`
	P99MS      float64        `json:"p99_ms"`
	Backends   map[string]int `json:"backends,omitempty"`
	Router     fleet.Stats    `json:"router"`
	// Harm lists accepted responses whose bytes diverged from the
	// sequential ground truth — the one list that must stay empty for
	// the Hippocratic property to hold at fleet scope.
	Harm       []string `json:"harm,omitempty"`
	BadRejects []string `json:"bad_rejects,omitempty"`
	Failures   []string `json:"failures,omitempty"`
}

// OK reports whether the scenario upheld zero-harm and zero-loss.
func (r *Result) OK() bool {
	return len(r.Harm) == 0 && len(r.BadRejects) == 0 && len(r.Failures) == 0 && r.Accepted == r.Jobs
}

// Normalize strips the nondeterministic interpreter stats sub-documents
// (step counts vary with crash-schedule interleaving) and re-marshals
// with sorted keys — the same normalization the server soak tests use.
// Everything else, including every repair decision and crash-validation
// verdict, must match byte-for-byte.
func Normalize(data []byte) (string, error) {
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("normalize: %w", err)
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
		return "", err
	}
	return string(out), nil
}

// baselines computes the sequential ground truth: one cli.Run per
// corpus target, normalized — what every accepted fleet response must
// byte-match. Returns the truth keyed by program name plus the pinned
// request set the scenarios replay.
func baselines() (map[string]string, []*cli.Request, error) {
	base := loadgen.CorpusRequests()
	want := make(map[string]string, len(base))
	for _, req := range base {
		r := *req
		r.TimeoutMS = 60_000
		rec := obs.New()
		root := rec.StartSpan("job")
		resp, err := cli.Run(&r, root)
		root.End()
		if err != nil {
			return nil, nil, fmt.Errorf("sequential baseline %s: %w", req.Program, err)
		}
		data, err := resp.EncodeJSON()
		if err != nil {
			return nil, nil, err
		}
		norm, err := Normalize(data)
		if err != nil {
			return nil, nil, err
		}
		want[req.Program] = norm
	}
	return want, base, nil
}

// passes builds the replayed request list: `n` passes over the corpus,
// each submission cache-busted by a distinct step limit (the limit is
// far above what any target uses, so it never changes behavior — it
// only changes the request hash, forcing every pass through the full
// repair pipeline instead of the response cache).
func passes(base []*cli.Request, n int) []*cli.Request {
	var out []*cli.Request
	for p := 0; p < n; p++ {
		for _, req := range base {
			r := *req
			r.TimeoutMS = 60_000
			r.StepLimit = req.StepLimit + int64(p)
			out = append(out, &r)
		}
	}
	return out
}

// Scenarios lists the fault-injection scenarios RunAll executes.
func Scenarios() []string {
	return []string{"kill-backend", "drain-backend", "latency-hedge", "reset-connections"}
}

// RunAll computes the sequential ground truth once and runs every
// scenario against it. Any returned error is a harness failure; chaos
// verdicts live in the per-scenario Results.
func RunAll(logw io.Writer) ([]*Result, error) {
	want, base, err := baselines()
	if err != nil {
		return nil, err
	}
	var out []*Result
	for _, name := range Scenarios() {
		res, err := runScenario(name, want, base, logw)
		if err != nil {
			return out, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, res)
		if logw != nil {
			verdict := "OK"
			if !res.OK() {
				verdict = "FAILED"
			}
			fmt.Fprintf(logw, "chaos: %-18s %s: %d/%d accepted, %d harm, wall %.0f ms, retries conn=%v reject=%v hedges=%v\n",
				name, verdict, res.Accepted, res.Jobs, len(res.Harm), res.WallMS,
				res.Router.RetriesConn, res.Router.RetriesReject, res.Router.Hedges)
		}
	}
	return out, nil
}

// runScenario executes one named scenario and returns its verdict.
func runScenario(name string, want map[string]string, base []*cli.Request, logw io.Writer) (*Result, error) {
	switch name {
	case "kill-backend":
		return runKill(want, base)
	case "drain-backend":
		return runDrain(want, base)
	case "latency-hedge":
		return runLatency(want, base)
	case "reset-connections":
		return runReset(want, base)
	default:
		return nil, fmt.Errorf("unknown scenario %q (have %v)", name, Scenarios())
	}
}

// drive replays reqs through the fleet's router, checking every
// accepted response against the ground truth, and folds the round into
// a Result.
func drive(tf *TestFleet, name string, want map[string]string, reqs []*cli.Request, schedule []loadgen.Event) (*Result, error) {
	res := &Result{Scenario: name, Jobs: len(reqs)}
	var mu sync.Mutex // OnResult fires from every loadgen worker concurrently
	check := func(req *cli.Request, o *loadgen.Outcome) {
		mu.Lock()
		defer mu.Unlock()
		if o.Err != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: %v", req.Program, o.Err))
			return
		}
		if !o.RetryAfterOK {
			res.BadRejects = append(res.BadRejects,
				fmt.Sprintf("%s: a 429/503 along the way carried no parseable Retry-After", req.Program))
		}
		if o.Status != http.StatusOK {
			res.Failures = append(res.Failures, fmt.Sprintf("%s: terminal HTTP %d", req.Program, o.Status))
			return
		}
		res.Accepted++
		got, err := Normalize(o.Body)
		if err != nil {
			res.Harm = append(res.Harm, fmt.Sprintf("%s: unparseable accepted response: %v", req.Program, err))
			return
		}
		if got != want[req.Program] {
			res.Harm = append(res.Harm, fmt.Sprintf("%s: accepted response diverged from sequential run", req.Program))
		}
	}
	rs, err := loadgen.Round(loadgen.Options{
		BaseURL:     tf.RouterURL(),
		Concurrency: 8,
		Requests:    reqs,
		Client:      &http.Client{Timeout: 5 * time.Minute},
		Schedule:    schedule,
		Retry503:    true,
		OnResult:    check,
	})
	// Round returns an error when any job failed; the per-job detail is
	// already in res via OnResult, so only surface harness-level trouble.
	if err != nil && len(res.Failures) == 0 {
		return nil, err
	}
	if rs != nil {
		res.WallMS = rs.WallMS
		res.P99MS = rs.P99MS
		res.Retries429 = rs.Retries429
		res.Retries503 = rs.Retries503
		res.Backends = rs.Backends
	}
	res.Router = tf.Router.StatsSnapshot()
	return res, nil
}

// runKill hard-kills one backend mid-load: a crashed process. Jobs in
// flight on it die at the transport; the router must fail them over and
// the client must see nothing but eventual 200s with correct bytes.
func runKill(want map[string]string, base []*cli.Request) (*Result, error) {
	tf, err := NewTestFleet(FleetOptions{Backends: 3})
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	reqs := passes(base, 2)
	schedule := []loadgen.Event{{AfterDone: len(base) / 2, Run: func() { tf.Kill(1) }}}
	res, err := drive(tf, "kill-backend", want, reqs, schedule)
	if err != nil {
		return nil, err
	}
	// The health poller must have noticed: exactly 2 of 3 available.
	if avail := availableBackends(tf); avail != 2 {
		res.Failures = append(res.Failures,
			fmt.Sprintf("router reports %d available backends after the kill, want 2", avail))
	}
	return res, nil
}

// runDrain SIGTERM-drains one backend mid-load: it keeps answering its
// accepted jobs but 503s new ones. The router must route around it and
// the drain itself must complete with nothing lost.
func runDrain(want map[string]string, base []*cli.Request) (*Result, error) {
	tf, err := NewTestFleet(FleetOptions{Backends: 3})
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	reqs := passes(base, 2)
	var drained <-chan error
	schedule := []loadgen.Event{{AfterDone: len(base) / 2, Run: func() { drained = tf.Drain(0) }}}
	res, err := drive(tf, "drain-backend", want, reqs, schedule)
	if err != nil {
		return nil, err
	}
	if drained == nil {
		res.Failures = append(res.Failures, "drain was never triggered — the schedule did not fire")
		return res, nil
	}
	select {
	case derr := <-drained:
		if derr != nil {
			res.Failures = append(res.Failures, fmt.Sprintf("drain did not complete cleanly: %v", derr))
		}
	case <-time.After(2 * time.Minute):
		res.Failures = append(res.Failures, "drain hung with jobs outstanding")
	}
	return res, nil
}

// runLatency stalls one backend's connections mid-load with hedging
// armed: the router must launch duplicate attempts and serve the fast
// copy — identical bytes by the replay contract — instead of pinning
// clients to the slow node.
func runLatency(want map[string]string, base []*cli.Request) (*Result, error) {
	tf, err := NewTestFleet(FleetOptions{
		Backends:     3,
		WithProxies:  true,
		NoKeepAlives: true,
		HedgeAfter:   150 * time.Millisecond,
	})
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	reqs := passes(base, 2)
	schedule := []loadgen.Event{{AfterDone: len(base) / 3, Run: func() {
		tf.Backends[0].Proxy.SetLatency(500 * time.Millisecond)
	}}}
	res, err := drive(tf, "latency-hedge", want, reqs, schedule)
	if err != nil {
		return nil, err
	}
	if res.Router.Hedges == 0 {
		res.Failures = append(res.Failures,
			"a 500ms-stalled backend provoked zero hedged attempts at HedgeAfter=150ms")
	}
	return res, nil
}

// runReset snaps every 3rd connection to one backend mid-load: the
// router's transport retries must absorb the resets without a job lost
// or a byte changed.
func runReset(want map[string]string, base []*cli.Request) (*Result, error) {
	tf, err := NewTestFleet(FleetOptions{Backends: 3, WithProxies: true, NoKeepAlives: true})
	if err != nil {
		return nil, err
	}
	defer tf.Close()
	reqs := passes(base, 2)
	schedule := []loadgen.Event{{AfterDone: len(base) / 3, Run: func() {
		tf.Backends[1].Proxy.SetResetEvery(3)
	}}}
	res, err := drive(tf, "reset-connections", want, reqs, schedule)
	if err != nil {
		return nil, err
	}
	if res.Router.RetriesConn == 0 {
		res.Failures = append(res.Failures,
			"connection resets every 3rd dial provoked zero transport retries — the fault never landed")
	}
	return res, nil
}

// availableBackends reads the router's own /healthz verdict.
func availableBackends(tf *TestFleet) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		avail, err := readAvailable(tf)
		if err == nil && avail < len(tf.Backends) {
			return avail
		}
		if time.Now().After(deadline) {
			if err != nil {
				return -1
			}
			return avail
		}
		time.Sleep(100 * time.Millisecond)
	}
}

func readAvailable(tf *TestFleet) (int, error) {
	resp, err := http.Get(tf.RouterURL() + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var doc struct {
		Available int `json:"available_backends"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		return 0, err
	}
	return doc.Available, nil
}
