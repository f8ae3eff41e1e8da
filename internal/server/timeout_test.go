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

// srcSpinRecovery validates in a few steps of workload, but its recovery
// entry never returns: only the job's deadline can end a crash job on it.
const srcSpinRecovery = `
pm int cell;

int crash_check() {
	int x = 0;
	while (x >= 0) { x = 1; }
	return x;
}

int main() {
	cell = 1;
	clwb(&cell);
	sfence();
	return 0;
}
`

// TestJobTimeoutReturns504: the server-side per-job deadline
// (hippocratesd -timeout, Config.DefaultTimeout) must kill a runaway job
// via the interpreter's deadline plumbing and surface as a typed 504
// error doc — not occupy the worker forever, and not masquerade as a
// generic 422 or, when the deadline cuts a crash job's recovery boots
// short, as a failed crash validation.
func TestJobTimeoutReturns504(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: 300 * time.Millisecond})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Step limits far beyond what 300ms allows: the deadline must fire first.
	for _, req := range []*cli.Request{
		{Program: "spin.pmc", Source: srcSpin, Mode: cli.ModeCheck, StepLimit: 2_000_000_000},
		{Program: "spin_recovery.pmc", Source: srcSpinRecovery, Mode: cli.ModeCrash, StepLimit: 2_000_000_000},
	} {
		body, err := json.Marshal(req)
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
			t.Fatalf("runaway %s job: HTTP %d (want 504): %.300s", req.Mode, resp.StatusCode, data)
		}
		var doc struct {
			Error string `json:"error"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("504 body is not an error doc: %v: %.300s", err, data)
		}
		if doc.Kind != "deadline" {
			t.Errorf("%s job: 504 kind %q, want \"deadline\" (%s)", req.Mode, doc.Kind, doc.Error)
		}
		if elapsed := time.Since(start); elapsed > 10*time.Second {
			t.Errorf("deadline enforcement took %s — the worker was occupied far past the budget", elapsed)
		}
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
