package benchmark

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
	"hippocrates/internal/server"
)

// Options configures a benchmark run.
type Options struct {
	Seed int64
	// Quick shrinks every workload to a tiny input set and one period.
	Quick bool
	// Seconds, when positive, bounds each timed phase by time (rounded up
	// to whole stream periods) instead of the workload's request count.
	Seconds float64
	// Setups is how many times a workload is set up; setup_s is their
	// median (0 means 5).
	Setups int
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

func (o Options) logf(format string, args ...any) {
	if o.Log != nil {
		fmt.Fprintf(o.Log, format+"\n", args...)
	}
}

// runner sends one request down a path. prepare does the client's own
// work (untimed); send is the timed request.
type runner interface {
	prepare(it *item) error
	send(it *item) (body []byte, hit bool, err error)
	close()
}

// cliRunner is the command-line path: cli.Run under a fresh recorder, as
// the hippocrates command runs it, then the response's wire encoding.
type cliRunner struct{}

func (cliRunner) prepare(*item) error { return nil }

func (cliRunner) send(it *item) ([]byte, bool, error) {
	q := it.req
	root := obs.New().StartSpan("pipeline")
	resp, err := cli.Run(&q, root)
	root.End()
	if err != nil {
		return nil, false, err
	}
	body, err := resp.EncodeJSON()
	return body, false, err
}

func (cliRunner) close() {}

// daemon is an in-process hippocratesd served on a loopback port.
type daemon struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	served chan error
}

func bootDaemon() (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	srv := server.New(server.Config{})
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String() + "/api/v1/repair",
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		served: make(chan error, 1),
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

func (d *daemon) prepare(it *item) error {
	_, err := it.body()
	return err
}

func (d *daemon) send(it *item) ([]byte, bool, error) {
	payload, err := it.body()
	if err != nil {
		return nil, false, err
	}
	resp, err := d.client.Post(d.url, "application/json", bytes.NewReader(payload))
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Hippocrates-Cache") == "hit", nil
}

func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	d.hs.Shutdown(ctx)
	<-d.served
	d.client.CloseIdleConnections()
	d.srv.Shutdown(ctx)
}

// submitter replays requests into a daemon's queue without HTTP.
type submitter struct{ srv *server.Server }

func (submitter) prepare(*item) error { return nil }

func (s submitter) send(it *item) ([]byte, bool, error) {
	q := it.req
	job, err := s.srv.Submit(&q)
	if err != nil {
		return nil, false, err
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return nil, false, err
	}
	return job.ResponseJSON(), job.CacheHit(), nil
}

func (s submitter) close() {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	s.srv.Shutdown(ctx)
}

// sample is one request's outcome in a phase.
type sample struct {
	index int
	ms    float64
	hit   bool
	facts facts
	err   error
}

// phase is the outcome of driving a stream range through a runner.
type phase struct {
	samples []sample
	// busy and done are each client's time waiting on requests and its
	// completed requests.
	busy []time.Duration
	done []int
	// allocBytes is what the process allocated during the phase. With one
	// client it leaves out the client's own work (building requests and
	// checking answers), measured around that work. With more, that window
	// would also catch the daemon serving the other connections, so
	// nothing is left out.
	allocBytes float64
}

// heapAllocs reads the process's cumulative heap allocation (TotalAlloc)
// without stopping the world.
func heapAllocs(s []metrics.Sample) uint64 {
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func allocSample() []metrics.Sample {
	return []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}

// drive runs a closed loop of clients over stream items starting at from:
// count items when count > 0, otherwise until d has elapsed and a whole
// number of periods has been handed out.
func drive(st *stream, r runner, v *verifier, clients, from, count int, d time.Duration) *phase {
	var (
		mu       sync.Mutex
		next     = from
		deadline = time.Now().Add(d)
		ph       = &phase{busy: make([]time.Duration, clients), done: make([]int, clients)}
		ownAlloc uint64
		first    []firstAnswer
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := next
		if count > 0 && i >= from+count {
			return 0, false
		}
		if count <= 0 && (i-from)%st.period == 0 && !time.Now().Before(deadline) {
			return 0, false
		}
		next++
		return i, true
	}
	ms := allocSample()
	start := heapAllocs(ms)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ms := allocSample()
			var own uint64
			var local []sample
			var firsts []firstAnswer
			for {
				i, ok := take()
				if !ok {
					break
				}
				a0 := heapAllocs(ms)
				it, err := st.at(i)
				if err == nil {
					err = r.prepare(it)
				}
				a1 := heapAllocs(ms)
				var body []byte
				var hit bool
				t := time.Now()
				if err == nil {
					body, hit, err = r.send(it)
				}
				lat := time.Since(t)
				a2 := heapAllocs(ms)
				s := sample{index: i, ms: float64(lat.Nanoseconds()) / 1e6, hit: hit, err: err}
				if err == nil {
					var known bool
					if s.facts, known, s.err = v.compare(it, body); !known {
						// Keep only what the check needs: a generated
						// request's source can go.
						firsts = append(firsts, firstAnswer{index: i, client: c, it: &item{key: it.key, check: it.check}, body: body})
					}
				}
				own += a1 - a0 + heapAllocs(ms) - a2
				ph.busy[c] += lat
				if s.err == nil {
					ph.done[c]++
				}
				local = append(local, s)
			}
			mu.Lock()
			ph.samples = append(ph.samples, local...)
			first = append(first, firsts...)
			ownAlloc += own
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	ph.allocBytes = float64(heapAllocs(ms) - start)
	if clients == 1 {
		ph.allocBytes -= float64(ownAlloc)
	}
	sort.Slice(ph.samples, func(i, j int) bool { return ph.samples[i].index < ph.samples[j].index })
	// A key's first answer is checked against its known answer once the
	// loop has stopped, so the checks neither delay requests nor allocate
	// among them.
	sort.Slice(first, func(i, j int) bool { return first[i].index < first[j].index })
	at := make(map[int]int, len(ph.samples))
	for k, s := range ph.samples {
		at[s.index] = k
	}
	for _, f := range first {
		s := &ph.samples[at[f.index]]
		if s.facts, s.err = v.verify(f.it, f.body); s.err != nil {
			ph.done[f.client]--
		}
	}
	return ph
}

// firstAnswer is a response to a key no answer of which was known yet.
type firstAnswer struct {
	index, client int
	it            *item
	body          []byte
}

// env is a set-up workload: its stream, the path serving it, and the
// answers seen so far.
type env struct {
	w  *Workload
	st *stream
	r  runner
	v  *verifier
	// warm is the warm-up phase.
	warm *phase
}

func (e *env) close() { e.r.close() }

// setup builds a workload's inputs, boots its daemon, and runs the warm-up
// (which checks every answer it sees).
func (w *Workload) setup(o Options) (*env, error) {
	st, err := w.build(o.Seed, o.Quick)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.Name, err)
	}
	var r runner = cliRunner{}
	if w.Daemon {
		if r, err = bootDaemon(); err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
	}
	e := &env{w: w, st: st, r: r, v: newVerifier()}
	e.warm = drive(st, r, e.v, w.Clients, 0, st.warmup, 0)
	return e, nil
}

// timed runs a timed phase on a set-up workload.
func (e *env) timed(o Options, d time.Duration) *phase {
	count := e.w.Requests
	if o.Quick {
		count = e.st.period
	}
	if d > 0 {
		count = 0
	}
	return drive(e.st, e.r, e.v, e.w.Clients, e.st.warmup, count, d)
}

// E2E is a workload's end-to-end result.
type E2E struct {
	Workload  string
	SetupS    []float64
	Attempted int
	Failed    int
	Errors    []string
	// LatMS holds every timed request's latency; failed requests count as
	// infinitely slow.
	LatMS []float64
	// Throughput is requests completed per second of client waiting time,
	// summed over clients: the closed loop's rate with zero think time.
	Throughput float64
	AllocMB    float64
	// LiveHeapMB is the heap live after a GC at the end of a daemon
	// workload, with the daemon still up (0 for CLI workloads).
	LiveHeapMB float64
	// Scheduled / Truncated count timed responses carrying a schedule
	// verdict and those cut short by the schedule budget.
	Scheduled, Truncated int
	// Rounds counts incremental crash-validation rounds over completed
	// responses.
	Rounds    int
	Completed int
}

// RunE2E sets w up o.Setups times (keeping the last set-up) and measures
// one timed phase with tracing off.
func RunE2E(w *Workload, o Options) (*E2E, error) {
	setups := o.Setups
	if setups <= 0 {
		setups = 5
	}
	res := &E2E{Workload: w.Name}
	var e *env
	for k := 0; k < setups; k++ {
		if e != nil {
			e.close()
		}
		// Every set-up starts from a collected heap, so none pays for
		// the garbage of the one before.
		runtime.GC()
		t := time.Now()
		var err error
		if e, err = w.setup(o); err != nil {
			return nil, err
		}
		res.SetupS = append(res.SetupS, time.Since(t).Seconds())
	}
	defer e.close()
	res.add(e.warm, false)
	o.logf("%s: set up in %.2fs (median of %d); timing", w.Name, median(res.SetupS), setups)
	t := time.Now()
	ph := e.timed(o, time.Duration(o.Seconds*float64(time.Second)))
	res.add(ph, true)
	o.logf("%s: timed %d request(s) in %.2fs", w.Name, len(ph.samples), time.Since(t).Seconds())
	if w.Daemon {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		res.LiveHeapMB = float64(m.HeapAlloc) / (1 << 20)
	}
	return res, nil
}

// add folds a phase into the result; only timed phases give metrics.
func (r *E2E) add(ph *phase, timed bool) {
	for _, s := range ph.samples {
		r.Attempted++
		if s.err != nil {
			r.Failed++
			if len(r.Errors) < 10 {
				r.Errors = append(r.Errors, s.err.Error())
			}
		}
		if !timed {
			continue
		}
		if s.err != nil {
			r.LatMS = append(r.LatMS, math.Inf(1))
			continue
		}
		r.LatMS = append(r.LatMS, s.ms)
		r.Completed++
		r.Rounds += s.facts.rounds
		if s.facts.scheduled {
			r.Scheduled++
		}
		if s.facts.truncated {
			r.Truncated++
		}
	}
	if !timed {
		return
	}
	for c, b := range ph.busy {
		if b > 0 {
			r.Throughput += float64(ph.done[c]) / b.Seconds()
		}
	}
	if r.Completed > 0 {
		r.AllocMB = ph.allocBytes / float64(r.Completed) / (1 << 20)
	}
}

// meanMS is the mean latency of completed timed requests.
func (r *E2E) meanMS() float64 {
	sum, n := 0.0, 0
	for _, ms := range r.LatMS {
		if !math.IsInf(ms, 1) {
			sum += ms
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// Values returns the workload's end-to-end metrics in print order.
func (r *E2E) Values() []Value {
	lat := append([]float64(nil), r.LatMS...)
	sort.Float64s(lat)
	n := len(lat)
	vals := []Value{
		{Name: "setup_s", Value: median(r.SetupS), N: len(r.SetupS)},
		{Name: "throughput_rps", Value: r.Throughput, N: r.Completed},
	}
	for _, p := range tailPercentiles(n) {
		vals = append(vals, Value{Name: fmt.Sprintf("latency_p%d_ms", p), Value: quantile(lat, float64(p)/100), N: n})
	}
	vals = append(vals, Value{Name: "alloc_mb_per_req", Value: r.AllocMB, N: r.Completed})
	if r.LiveHeapMB > 0 {
		vals = append(vals, Value{Name: "live_heap_mb", Value: r.LiveHeapMB, N: 1})
	}
	ratio := 0.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	vals = append(vals, Value{Name: "failed_ratio", Value: ratio, N: r.Attempted})
	if r.Scheduled > 0 && r.Scheduled == r.Completed {
		vals = append(vals, Value{Name: "verdict_complete_ratio",
			Value: float64(r.Scheduled-r.Truncated) / float64(r.Scheduled), N: r.Scheduled})
	}
	return withUnits(vals)
}
