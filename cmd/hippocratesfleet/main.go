// Command hippocratesfleet is the fleet router: a consistent-hash HTTP
// load balancer over N hippocratesd backends. Jobs route by source key
// (the artifact-cache key), so every replay of one program lands on the
// same backend and both per-node caches stay hot. The router health-
// checks its backends, fails over on transport errors with bounded
// exponential backoff, routes around draining nodes, circuit-breaks
// flapping ones, and can hedge slow requests with a duplicate attempt —
// safe because hippocratesd's replay contract is byte-identical
// responses for identical requests.
//
// Usage:
//
//	hippocratesfleet -backends URL,URL,...   route over running daemons
//	hippocratesfleet -spawn N                boot N in-process backends
//	                                         and route over them
//	hippocratesfleet -smoke                  run the chaos suite as a CI
//	                                         gate (kill/drain/latency/
//	                                         reset; zero harm required)
//	                                         + lint the router's /metrics
//	hippocratesfleet -chaos                  chaos suite, verbose JSON
//
// Flags:
//
//	-addr HOST:PORT    router listen address (default 127.0.0.1:8090)
//	-backends URLS     comma-separated backend base URLs
//	-spawn N           boot N in-process hippocratesd backends instead
//	-workers N         per-spawned-backend worker pool (default 2)
//	-hedge-after DUR   duplicate slow requests after DUR (default off)
//	-probe-interval D  health-poll period (default 500ms)
//	-quiet             suppress progress lines
//
// Router API: POST /api/v1/repair and POST /api/v1/jobs (proxied),
// GET /healthz (per-backend verdicts), GET /metrics (Prometheus text,
// hippocratesfleet_* families). When no backend can take a job the
// router answers 503 + jittered Retry-After — the same contract a
// draining daemon gives, so clients need no router-specific handling.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"hippocrates/internal/fleet"
	"hippocrates/internal/fleet/chaos"
	"hippocrates/internal/obs"
	"hippocrates/internal/server"
)

func main() {
	var (
		addr          = flag.String("addr", "127.0.0.1:8090", "router listen address")
		backends      = flag.String("backends", "", "comma-separated backend base URLs")
		spawn         = flag.Int("spawn", 0, "boot N in-process hippocratesd backends")
		workers       = flag.Int("workers", 2, "worker pool per spawned backend")
		hedgeAfter    = flag.Duration("hedge-after", 0, "hedge slow requests after this long (0 = off)")
		probeInterval = flag.Duration("probe-interval", 500*time.Millisecond, "health-poll period")
		smoke         = flag.Bool("smoke", false, "run the chaos suite as a pass/fail gate")
		chaosMode     = flag.Bool("chaos", false, "run the chaos suite, print verbose JSON results")
		quiet         = flag.Bool("quiet", false, "suppress progress lines")
	)
	flag.Parse()

	logw := io.Writer(os.Stderr)
	if *quiet {
		logw = io.Discard
	}

	switch {
	case *smoke:
		os.Exit(runSmoke(logw))
	case *chaosMode:
		os.Exit(runChaos(logw))
	}

	if err := serve(*addr, *backends, *spawn, *workers, *hedgeAfter, *probeInterval, logw); err != nil {
		fmt.Fprintln(os.Stderr, "hippocratesfleet:", err)
		os.Exit(1)
	}
}

// serve routes over external or spawned backends until SIGINT/SIGTERM.
func serve(addr, backendList string, spawn, workers int, hedgeAfter, probeInterval time.Duration, logw io.Writer) error {
	var members []fleet.Backend
	var spawned []*spawnedBackend
	switch {
	case spawn > 0 && backendList != "":
		return fmt.Errorf("-spawn and -backends are mutually exclusive")
	case spawn > 0:
		for i := 0; i < spawn; i++ {
			sb, err := spawnBackend(fmt.Sprintf("fleet-%d", i), workers)
			if err != nil {
				return err
			}
			spawned = append(spawned, sb)
			members = append(members, fleet.Backend{Name: sb.name, URL: sb.url})
			fmt.Fprintf(logw, "hippocratesfleet: spawned backend %s at %s\n", sb.name, sb.url)
		}
	case backendList != "":
		for i, raw := range strings.Split(backendList, ",") {
			url := strings.TrimRight(strings.TrimSpace(raw), "/")
			if url == "" {
				continue
			}
			name := backendIdentity(url)
			if name == "" {
				name = fmt.Sprintf("b%d", i)
			}
			members = append(members, fleet.Backend{Name: name, URL: url})
		}
		if len(members) == 0 {
			return fmt.Errorf("-backends lists no usable URLs")
		}
	default:
		return fmt.Errorf("need -backends or -spawn (or a mode flag; see -h)")
	}

	rt, err := fleet.New(fleet.Config{
		Backends:      members,
		ProbeInterval: probeInterval,
		HedgeAfter:    hedgeAfter,
	})
	if err != nil {
		return err
	}
	defer rt.Close()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	httpd := &http.Server{Handler: rt.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpd.Serve(ln) }()
	fmt.Fprintf(logw, "hippocratesfleet: routing over %d backend(s) at http://%s\n", len(members), ln.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(logw, "hippocratesfleet: %s: shutting down\n", s)
	case err := <-errc:
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	httpd.Shutdown(ctx)
	for _, sb := range spawned {
		dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Minute)
		if err := sb.srv.Shutdown(dctx); err != nil {
			fmt.Fprintf(logw, "hippocratesfleet: drain %s: %v\n", sb.name, err)
		}
		dcancel()
		sb.httpd.Close()
	}
	return nil
}

type spawnedBackend struct {
	name  string
	url   string
	srv   *server.Server
	httpd *http.Server
}

func spawnBackend(name string, workers int) (*spawnedBackend, error) {
	srv := server.New(server.Config{Workers: workers, BackendID: name})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpd := &http.Server{Handler: srv.Handler()}
	go httpd.Serve(ln)
	return &spawnedBackend{name: name, url: "http://" + ln.Addr().String(), srv: srv, httpd: httpd}, nil
}

// backendIdentity asks a backend's /healthz for its -id.
func backendIdentity(url string) string {
	client := &http.Client{Timeout: 2 * time.Second}
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	var doc struct {
		BackendID string `json:"backend_id"`
	}
	if json.NewDecoder(resp.Body).Decode(&doc) != nil {
		return ""
	}
	return doc.BackendID
}

// runSmoke is the CI gate: the full chaos suite must pass with zero
// harm, and the router's /metrics must lint.
func runSmoke(logw io.Writer) int {
	fmt.Fprintln(logw, "hippocratesfleet: smoke: chaos suite (kill, drain, latency+hedge, resets)")
	results, err := chaos.RunAll(logw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "fleet-smoke: harness:", err)
		return 1
	}
	bad := 0
	for _, res := range results {
		if !res.OK() {
			doc, _ := json.MarshalIndent(res, "", "  ")
			fmt.Fprintf(os.Stderr, "fleet-smoke: scenario %s FAILED:\n%s\n", res.Scenario, doc)
			bad++
		}
	}
	if err := lintRouterMetrics(logw); err != nil {
		fmt.Fprintln(os.Stderr, "fleet-smoke: metrics lint:", err)
		bad++
	}
	if bad > 0 {
		return 1
	}
	fmt.Fprintln(logw, "hippocratesfleet: smoke: all scenarios zero-harm, metrics lint clean")
	return 0
}

// lintRouterMetrics boots a tiny fleet, pushes one job through, and
// lints the router's Prometheus output with the shared linter.
func lintRouterMetrics(logw io.Writer) error {
	tf, err := chaos.NewTestFleet(chaos.FleetOptions{Backends: 2, Workers: 1})
	if err != nil {
		return err
	}
	defer tf.Close()
	body := `{"program":"lint.pmc","source":"fn main() {}","mode":"check"}`
	resp, err := http.Post(tf.RouterURL()+"/api/v1/repair", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	mresp, err := http.Get(tf.RouterURL() + "/metrics")
	if err != nil {
		return err
	}
	defer mresp.Body.Close()
	data, err := io.ReadAll(mresp.Body)
	if err != nil {
		return err
	}
	if err := obs.LintProm(data); err != nil {
		return fmt.Errorf("%w\n%s", err, data)
	}
	fmt.Fprintf(logw, "hippocratesfleet: smoke: router /metrics lints (%d bytes)\n", len(data))
	return nil
}

// runChaos runs the suite and prints every scenario's full JSON result.
func runChaos(logw io.Writer) int {
	results, err := chaos.RunAll(logw)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chaos:", err)
		return 1
	}
	doc, _ := json.MarshalIndent(results, "", "  ")
	fmt.Println(string(doc))
	for _, res := range results {
		if !res.OK() {
			return 1
		}
	}
	return 0
}
