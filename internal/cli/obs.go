package cli

import (
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"hippocrates/internal/obs"
)

// ObsFlags is the observability flag trio every command shares:
//
//	-metrics FILE   counters, histograms, opcode top-10, phase timings
//	-spans FILE     the span tree as a self-contained Chrome trace_event
//	                file (load in chrome://tracing or ui.perfetto.dev)
//	-audit          print the repair audit trail on stdout
type ObsFlags struct {
	MetricsPath string
	SpansPath   string
	Audit       bool
}

// Register installs -metrics, -spans, and -audit on the default flag set.
func (c *ObsFlags) Register() {
	flag.StringVar(&c.MetricsPath, "metrics", "", "write counters, histograms, and phase timings as JSON to `file`")
	flag.StringVar(&c.SpansPath, "spans", "", "write the pipeline span tree as Chrome trace_event JSON to `file`")
	flag.BoolVar(&c.Audit, "audit", false, "print the repair audit trail (each insertion mapped to its report and heuristic decision)")
}

// Enabled reports whether any observability output was requested.
func (c *ObsFlags) Enabled() bool {
	return c.MetricsPath != "" || c.SpansPath != "" || c.Audit
}

// NewRecorder returns a recorder when any observability flag is set and
// nil (the no-op recorder) otherwise. Allocation tracking is enabled only
// when metrics were requested — ReadMemStats is too expensive to pay for
// span output alone.
func (c *ObsFlags) NewRecorder() *obs.Recorder {
	if !c.Enabled() {
		return nil
	}
	r := obs.New()
	r.SetTrackAllocs(c.MetricsPath != "")
	return r
}

// Finish writes the requested artifact files and prints the audit trail
// to w. Call it once, after all spans have ended.
func (c *ObsFlags) Finish(r *obs.Recorder, w io.Writer) error {
	if r == nil {
		return nil
	}
	if c.MetricsPath != "" {
		if err := r.WriteMetricsFile(c.MetricsPath); err != nil {
			return err
		}
	}
	if c.SpansPath != "" {
		if err := r.WriteChromeTraceFile(c.SpansPath); err != nil {
			return err
		}
	}
	if c.Audit {
		fmt.Fprint(w, r.AuditText())
	}
	return nil
}

// PhaseSummary renders the recorder's per-phase wall times as one line,
// e.g. "lex 12µs, parse 48µs, trace 1.2ms". Root spans (the whole-run
// umbrella) are skipped; phases appear in first-start order.
func PhaseSummary(r *obs.Recorder) string {
	if r == nil {
		return ""
	}
	roots := map[string]bool{}
	for _, s := range r.Spans() {
		if s.Parent < 0 {
			roots[s.Name] = true
		}
	}
	var parts []string
	for _, pt := range r.PhaseTotals() {
		if roots[pt.Name] {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %s", pt.Name, roundDur(pt.Total)))
	}
	return strings.Join(parts, ", ")
}

// roundDur trims a duration to a readable precision for the summary line.
func roundDur(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(time.Microsecond)
	}
}
