package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hippocrates/internal/cli"
)

// TestJobTimeoutReturns504: the server-side per-job deadline
// (hippocratesd -timeout, Config.DefaultTimeout) must kill a runaway job
// via the interpreter's deadline plumbing and surface as a typed 504
// error doc — not occupy the worker forever, and not masquerade as a
// generic 422.
func TestJobTimeoutReturns504(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: 300 * time.Millisecond})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body, err := json.Marshal(&cli.Request{
		Program:   "spin.pmc",
		Source:    srcSpin,
		Mode:      cli.ModeCheck,
		StepLimit: 2_000_000_000, // far beyond what 300ms allows: the deadline must fire first
	})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := http.Post(ts.URL+"/api/v1/repair", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("runaway job: HTTP %d (want 504): %.300s", resp.StatusCode, data)
	}
	var doc struct {
		Error string `json:"error"`
		Kind  string `json:"kind"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("504 body is not an error doc: %v: %.300s", err, data)
	}
	if doc.Kind != "deadline" {
		t.Errorf("504 kind %q, want \"deadline\" (%s)", doc.Kind, doc.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("deadline enforcement took %s — the worker was occupied far past the budget", elapsed)
	}

	// The step-limit sibling stays a 422, but typed.
	body2, err := json.Marshal(&cli.Request{
		Program:   "spin.pmc",
		Source:    srcSpin,
		Mode:      cli.ModeCheck,
		StepLimit: 10_000,
		TimeoutMS: 60_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	resp2, err := http.Post(ts.URL+"/api/v1/repair", "application/json", strings.NewReader(string(body2)))
	if err != nil {
		t.Fatal(err)
	}
	data2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("step-limited job: HTTP %d (want 422): %.300s", resp2.StatusCode, data2)
	}
	var doc2 struct {
		Kind string `json:"kind"`
	}
	if err := json.Unmarshal(data2, &doc2); err != nil {
		t.Fatal(err)
	}
	if doc2.Kind != "steplimit" {
		t.Errorf("422 kind %q, want \"steplimit\"", doc2.Kind)
	}
}
