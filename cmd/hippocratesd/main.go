// Command hippocratesd is the repair-as-a-service daemon: the Hippocrates
// pipeline behind a long-lived HTTP/JSON API instead of a one-shot CLI.
// Submit a pmc program with the same options the commands take (entry,
// static vs dynamic detection, crashcheck, steplimit/timeout) and receive
// the repaired source, the repair-provenance audit trail, and per-round
// crash verdicts — deterministic JSON, byte-identical across equal
// requests, which is what makes responses cacheable and diffable.
//
// Usage:
//
//	hippocratesd [flags]              serve until SIGTERM (graceful drain)
//	hippocratesd -smoke               boot, round-trip one buggy corpus
//	                                  program, validate what it serves, exit
//
// Flags:
//
//	-addr HOST:PORT   listen address (default 127.0.0.1:8080)
//	-workers N        worker pool size (default GOMAXPROCS, max 8)
//	-queue N          per-worker queue depth (default 32)
//	-retention N      finished jobs retrievable by ID (default 256)
//	-timeout DUR      default per-job wall-clock budget (default 60s); a
//	                  job that exceeds its budget is killed via the
//	                  interpreter's wall-clock plumbing and answered 504
//	                  with a typed {"kind":"deadline"} error doc
//	-max-timeout DUR  ceiling on requested job timeouts (default 5m)
//	-steplimit N      default instruction budget per interpreter run
//	-pprof HOST:PORT  serve net/http/pprof on a separate listener
//	                  (default off; bind loopback — it is unauthenticated)
//	-quiet            suppress the per-job log line
//
// API: POST /api/v1/repair (synchronous), POST /api/v1/jobs (async 202),
// GET /api/v1/jobs/{id}, GET /api/v1/jobs/{id}/spans,
// GET /api/v1/debug/flightrecorder, GET /metrics (Prometheus text),
// GET /healthz. Every submit echoes X-Trace-Id
// (inbound X-Trace-Id / W3C traceparent, or generated). A full queue
// answers 429 + Retry-After; draining answers 503 + Retry-After.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/server"
	"hippocrates/internal/server/loadgen"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS, max 8)")
	queue := flag.Int("queue", 0, "per-worker queue depth (0 = 32)")
	retention := flag.Int("retention", 0, "finished jobs retrievable by ID (0 = 256)")
	timeout := flag.Duration("timeout", 0, "default per-job wall-clock budget (0 = 60s)")
	maxTimeout := flag.Duration("max-timeout", 0, "ceiling on requested job timeouts (0 = 5m)")
	stepLimit := flag.Int64("steplimit", 0, "default instruction budget per interpreter run (0 = 100M)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	smoke := flag.Bool("smoke", false, "boot, round-trip one corpus program, validate what it serves, exit")
	quiet := flag.Bool("quiet", false, "suppress the per-job log line")
	flag.Parse()

	cfg := server.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		Retention:      *retention,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		StepLimit:      *stepLimit,
	}
	if !*quiet {
		cfg.Log = os.Stderr
	}

	var err error
	if *smoke {
		err = runSmoke(cfg)
	} else {
		err = serve(cfg, *addr, *pprofAddr)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hippocratesd:", err)
		os.Exit(1)
	}
}

// serve runs the daemon until SIGTERM/SIGINT, then drains: accepted jobs
// finish, new submissions get 503, and the listener closes last. A
// non-empty pprofAddr serves the profiler on its own listener so the API
// port never exposes it.
func serve(cfg server.Config, addr, pprofAddr string) error {
	srv := server.New(cfg)
	httpSrv := srv.HTTPServer(addr)

	errCh := make(chan error, 1)
	var pprofSrv *http.Server
	if pprofAddr != "" {
		pprofSrv = &http.Server{Addr: pprofAddr, Handler: pprofMux()}
		go func() {
			if err := pprofSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
				errCh <- fmt.Errorf("pprof listener: %w", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "hippocratesd: pprof on %s\n", pprofAddr)
	}
	go func() {
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errCh <- err
		}
	}()
	fmt.Fprintf(os.Stderr, "hippocratesd: serving on %s\n", addr)

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		fmt.Fprintf(os.Stderr, "hippocratesd: %s: draining\n", sig)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if pprofSrv != nil {
		pprofSrv.Shutdown(ctx)
	}
	return httpSrv.Shutdown(ctx)
}

// pprofMux is the explicit profiler mux — the same handlers the
// net/http/pprof blank import would hang on DefaultServeMux, but on a
// dedicated mux for a dedicated listener.
func pprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// boot starts an in-process daemon on an ephemeral port for the smoke
// path and returns its base URL plus a shutdown func.
func boot(cfg server.Config) (string, func(), error) {
	srv := server.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	httpSrv := srv.HTTPServer("")
	go httpSrv.Serve(ln)
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		srv.Shutdown(ctx)
		httpSrv.Shutdown(ctx)
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// runSmoke boots the daemon, round-trips one buggy corpus program with
// crash validation on, and schema-validates everything the API serves:
// the repair response (whose repaired IR must parse and verify), the
// cache-hit replay (must be byte-identical), trace-ID propagation (the
// supplied X-Trace-Id must come back on the submit and reappear in the
// flight recorder), the Prometheus /metrics exposition (content type,
// linter, the families a dashboard needs, a response-cache hit and no
// failed job), and the flight recorder. It is the engine behind
// `make server-smoke`.
func runSmoke(cfg server.Config) error {
	base, stop, err := boot(cfg)
	if err != nil {
		return err
	}
	defer stop()

	reqs := loadgen.CorpusRequests()
	if len(reqs) == 0 {
		return fmt.Errorf("smoke: no corpus requests")
	}
	// pclht is the smallest crashsim-able paper target; fall back to the
	// first request if the corpus ever renames it.
	req := reqs[0]
	for _, r := range reqs {
		if r.Program == "pclht.pmc" {
			req = r
			break
		}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	client := &http.Client{Timeout: 2 * time.Minute}

	const traceID = "smoke-trace-0001"
	first, hdr1, err := postOnce(client, base, body, traceID)
	if err != nil {
		return err
	}
	if hdr1.Get("X-Hippocrates-Cache") != "miss" {
		return fmt.Errorf("smoke: first submit was not a cache miss (%q)", hdr1.Get("X-Hippocrates-Cache"))
	}
	if got := hdr1.Get(server.TraceHeader); got != traceID {
		return fmt.Errorf("smoke: submit did not echo the inbound trace ID (got %q, want %q)", got, traceID)
	}
	if err := server.ValidateResponse(first); err != nil {
		return fmt.Errorf("smoke: response does not match schema/response.schema.json: %w", err)
	}
	var doc struct {
		Fixed      bool   `json:"fixed"`
		BugsBefore int    `json:"bugs_before"`
		RepairedIR string `json:"repaired_ir"`
		Audit      []any  `json:"audit"`
		Crash      *struct {
			Passed    bool `json:"passed"`
			Schedules int  `json:"schedules"`
		} `json:"crash"`
	}
	if err := json.Unmarshal(first, &doc); err != nil {
		return err
	}
	switch {
	case doc.BugsBefore == 0:
		return fmt.Errorf("smoke: %s reported no bugs before repair", req.Program)
	case !doc.Fixed:
		return fmt.Errorf("smoke: %s was not fully repaired", req.Program)
	case doc.RepairedIR == "":
		return fmt.Errorf("smoke: response carries no repaired IR")
	case len(doc.Audit) == 0:
		return fmt.Errorf("smoke: response carries no audit trail")
	case doc.Crash == nil || !doc.Crash.Passed || doc.Crash.Schedules == 0:
		return fmt.Errorf("smoke: crash validation missing or failing")
	}
	repaired, err := ir.ParseModule(doc.RepairedIR)
	if err == nil {
		err = ir.Verify(repaired)
	}
	if err != nil {
		return fmt.Errorf("smoke: the repaired IR does not read back: %w", err)
	}
	fmt.Printf("hippocratesd: smoke: %s repaired (%d bug(s), %d audit entries, %d crash schedule(s) pass; %d-instruction repaired IR reads back)\n",
		req.Program, doc.BugsBefore, len(doc.Audit), doc.Crash.Schedules, repaired.NumInstrs())

	second, hdr2, err := postOnce(client, base, body, "")
	if err != nil {
		return err
	}
	if hdr2.Get("X-Hippocrates-Cache") != "hit" {
		return fmt.Errorf("smoke: identical resubmit was not a cache hit (%q)", hdr2.Get("X-Hippocrates-Cache"))
	}
	if string(first) != string(second) {
		return fmt.Errorf("smoke: cached response differs from the original (%d vs %d bytes)", len(first), len(second))
	}
	if got := hdr2.Get(server.TraceHeader); got == "" || got == traceID {
		return fmt.Errorf("smoke: resubmit trace ID %q should be fresh, not empty or the first request's", got)
	}
	fmt.Println("hippocratesd: smoke: identical resubmit served byte-identically from the response cache")

	// The job's span tree must be retrievable by ID.
	jobID := hdr1.Get("X-Hippocrates-Job")
	spansResp, err := client.Get(base + "/api/v1/jobs/" + jobID + "/spans")
	if err != nil {
		return err
	}
	spans, err := io.ReadAll(spansResp.Body)
	spansResp.Body.Close()
	if err != nil {
		return err
	}
	if spansResp.StatusCode != http.StatusOK {
		return fmt.Errorf("smoke: GET spans for %s: HTTP %d", jobID, spansResp.StatusCode)
	}
	var spansDoc struct {
		Spans []struct {
			Name string `json:"name"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(spans, &spansDoc); err != nil {
		return err
	}
	seen := map[string]bool{}
	for _, sp := range spansDoc.Spans {
		seen[sp.Name] = true
	}
	for _, phase := range []string{"job", "lex", "parse", "lower", "trace", "detect", "plan", "apply", "revalidate", "crashsim"} {
		if !seen[phase] {
			return fmt.Errorf("smoke: job span tree is missing phase %q", phase)
		}
	}
	fmt.Printf("hippocratesd: smoke: span tree for %s covers the full pipeline\n", jobID)

	// The Prometheus exposition: right content type, passes the linter,
	// and carries the families a dashboard would actually scrape.
	promResp, err := client.Get(base + "/metrics")
	if err != nil {
		return err
	}
	prom, err := io.ReadAll(promResp.Body)
	promResp.Body.Close()
	if err != nil {
		return err
	}
	if ct := promResp.Header.Get("Content-Type"); ct != server.PromContentType {
		return fmt.Errorf("smoke: /metrics content type %q, want %q", ct, server.PromContentType)
	}
	if err := obs.LintProm(prom); err != nil {
		return fmt.Errorf("smoke: /metrics fails the exposition linter: %w", err)
	}
	for _, want := range []string{
		"hippocratesd_queue_depth{",
		"hippocratesd_phase_latency_ns{",
		"hippocratesd_jobs_total{",
		"hippocratesd_cache_events_total{",
	} {
		if !strings.Contains(string(prom), want) {
			return fmt.Errorf("smoke: /metrics exposition is missing %q", want)
		}
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(prom), "\n") {
		if name, value, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			samples[name], _ = strconv.ParseFloat(value, 64)
		}
	}
	const hits, failed = `hippocratesd_cache_events_total{cache="response",result="hit"}`, `hippocratesd_jobs_total{event="failed"}`
	if v, ok := samples[hits]; !ok || v <= 0 {
		return fmt.Errorf("smoke: /metrics sample %s is %v (present %v), want > 0", hits, v, ok)
	}
	if v, ok := samples[failed]; !ok || v != 0 {
		return fmt.Errorf("smoke: /metrics sample %s is %v (present %v), want 0", failed, v, ok)
	}
	fmt.Printf("hippocratesd: smoke: /metrics exposition lints clean (%d bytes, %v response-cache hit(s), no failed job)\n",
		len(prom), samples[hits])

	// The flight recorder must have retained the job — one completed job
	// always ranks among the N slowest — under the trace ID we supplied.
	frResp, err := client.Get(base + "/api/v1/debug/flightrecorder")
	if err != nil {
		return err
	}
	fr, err := io.ReadAll(frResp.Body)
	frResp.Body.Close()
	if err != nil {
		return err
	}
	if err := server.ValidateFlightRecorder(fr); err != nil {
		return fmt.Errorf("smoke: flight recorder does not match schema/flightrecorder.schema.json: %w", err)
	}
	var frDoc struct {
		Slowest []struct {
			JobID   string `json:"job_id"`
			TraceID string `json:"trace_id"`
		} `json:"slowest"`
	}
	if err := json.Unmarshal(fr, &frDoc); err != nil {
		return err
	}
	if len(frDoc.Slowest) == 0 {
		return fmt.Errorf("smoke: flight recorder retained no slow jobs after a completed job")
	}
	if frDoc.Slowest[0].TraceID != traceID {
		return fmt.Errorf("smoke: flight recorder trace ID %q, want %q", frDoc.Slowest[0].TraceID, traceID)
	}
	fmt.Printf("hippocratesd: smoke: flight recorder retained %s under trace %s\n",
		frDoc.Slowest[0].JobID, frDoc.Slowest[0].TraceID)
	fmt.Println("hippocratesd: smoke: OK")
	return nil
}

// postOnce submits one synchronous repair (under the given trace ID when
// non-empty) and returns body + headers.
func postOnce(client *http.Client, base string, body []byte, traceID string) ([]byte, http.Header, error) {
	httpReq, err := http.NewRequest(http.MethodPost, base+"/api/v1/repair", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	httpReq.Header.Set("Content-Type", "application/json")
	if traceID != "" {
		httpReq.Header.Set(server.TraceHeader, traceID)
	}
	resp, err := client.Do(httpReq)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("POST /api/v1/repair: HTTP %d: %s", resp.StatusCode, data)
	}
	return data, resp.Header, nil
}
