package cli

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// The pipeline modes a Request can ask for. They correspond one-to-one
// to the three commands: repair is hippocrates, check is pmcheck, crash
// is pmvm -crash.
const (
	// ModeRepair runs the full trace→detect→fix→revalidate pipeline
	// (static detection instead with Static set).
	ModeRepair = "repair"
	// ModeCheck detects durability bugs without repairing.
	ModeCheck = "check"
	// ModeCrash crash-injects the program as given and runs its recovery
	// entries on every feasible post-crash image.
	ModeCrash = "crash"
)

// Request is one pipeline invocation, shared verbatim between the
// command-line tools and the hippocratesd HTTP API: the commands fill it
// from flags, the daemon decodes it from the request body, and both hand
// it to Run — so the two front ends cannot drift. The JSON field names
// are the API contract; fields tagged json:"-" exist for in-process
// callers only.
type Request struct {
	// Program names the submitted program; it becomes the file name in
	// IR locations and selects the syntax: a ".pmir" suffix parses
	// Source as textual IR, anything else compiles it as pmc source.
	// Empty defaults to "request.pmc".
	Program string `json:"program,omitempty"`
	// Source is the program text itself.
	Source string `json:"source"`
	// Mode selects the pipeline: repair (default), check, or crash.
	Mode string `json:"mode,omitempty"`
	// Entry is the workload entrypoint (default "main"); Args its
	// integer arguments.
	Entry string   `json:"entry,omitempty"`
	Args  []uint64 `json:"args,omitempty"`
	// Static switches repair/check detection from dynamic tracing to the
	// static persistency analysis (no execution).
	Static bool `json:"static,omitempty"`
	// Marks is the hoisting heuristic's pointer-marking strategy:
	// "full-aa" (default) or "trace-aa".
	Marks string `json:"marks,omitempty"`
	// IntraOnly disables hoisting (intraprocedural fixes only).
	IntraOnly bool `json:"intra_only,omitempty"`
	// Flush is the inserted flush flavour: "clwb" (default),
	// "clflushopt", or "clflush".
	Flush string `json:"flush,omitempty"`
	// CrashCheck enables post-repair crash-schedule validation in repair
	// mode (implied by crash mode).
	CrashCheck bool `json:"crashcheck,omitempty"`
	// Optimize runs the repair-to-optimize pass (internal/optimize) on
	// the final module: in repair mode after a successful repair, in
	// check mode on the program as given. Every edit is proven harmless
	// by run/report identity plus — when the module declares recovery
	// entries — crashsim verdict identity; CrashPoints / CrashImages
	// bound that proof's budgets.
	Optimize bool `json:"optimize,omitempty"`
	// Invariant / Recovery name the recovery entries for crash
	// validation and optimize's verdict-identity proof ("" = the
	// crashsim defaults, "-" = disabled).
	Invariant string `json:"invariant,omitempty"`
	Recovery  string `json:"recovery,omitempty"`
	// CrashPoints / CrashImages are the crash-point and per-point
	// schedule budgets (0 = crashsim defaults).
	CrashPoints int `json:"crash_points,omitempty"`
	CrashImages int `json:"crash_images,omitempty"`
	// Threads switches repair/check/crash to the interleaving-aware
	// pipeline: the workload's thread schedules are explored (bounded,
	// with persistence-aware partial-order reduction), the detector runs
	// under every explored schedule, and — in repair and crash modes
	// with crash validation — every explored interleaving is
	// crash-swept. Requires dynamic execution (no static, no trace
	// replay, no optimize).
	Threads bool `json:"threads,omitempty"`
	// MaxSchedules bounds the interleaving search (0 = the
	// schedule-package default). Only meaningful with Threads.
	MaxSchedules int `json:"max_schedules,omitempty"`
	// StepLimit bounds every interpreter run (0 = default 100M).
	StepLimit int64 `json:"steplimit,omitempty"`
	// TimeoutMS is the wall-clock budget for the whole job in
	// milliseconds (0 = none; the daemon clamps it to its own ceiling).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`

	// In-process knobs, invisible to the JSON API.

	// DebugScores receives heuristic candidate scores (-show-scores).
	DebugScores io.Writer `json:"-"`
	// CrashLog receives crashsim pruning notices and failure lines.
	CrashLog io.Writer `json:"-"`
	// CrashCache, when non-nil, shares memoized recovery verdicts with
	// other runs of the same program (the daemon's artifact cache).
	CrashCache *crashsim.VerdictCache `json:"-"`
	// CrashWorkers sizes the crashsim worker pool (0 = crashsim default).
	CrashWorkers int `json:"-"`
	// SummaryStore, when non-nil, backs the static analyses of this run
	// with cached function summaries and alias constraints shared with
	// other runs (the daemon's summary store). Results are byte-identical
	// with or without it.
	SummaryStore *static.Store `json:"-"`
	// ReplayTrace, when non-nil in repair mode, skips the tracing phase
	// and detects against this pre-recorded trace (hippocrates -trace).
	ReplayTrace *trace.Trace `json:"-"`
}

// Validate normalizes defaults and rejects contradictory requests.
// Treat an error as a usage error (HTTP 400 / exit 2).
func (q *Request) Validate() error {
	if strings.TrimSpace(q.Source) == "" {
		return fmt.Errorf("empty source")
	}
	if q.Program == "" {
		q.Program = "request.pmc"
	}
	if q.Mode == "" {
		q.Mode = ModeRepair
	}
	if q.Entry == "" {
		q.Entry = "main"
	}
	if q.Marks == "" {
		q.Marks = "full-aa"
	}
	if q.Flush == "" {
		q.Flush = "clwb"
	}
	switch q.Mode {
	case ModeRepair, ModeCheck, ModeCrash:
	default:
		return fmt.Errorf("unknown mode %q (want repair, check, or crash)", q.Mode)
	}
	switch q.Marks {
	case "full-aa", "trace-aa":
	default:
		return fmt.Errorf("unknown marks %q (want full-aa or trace-aa)", q.Marks)
	}
	switch q.Flush {
	case "clwb", "clflushopt", "clflush":
	default:
		return fmt.Errorf("unknown flush %q (want clwb, clflushopt, or clflush)", q.Flush)
	}
	if q.Mode == ModeCrash {
		q.CrashCheck = true
	}
	if q.Static {
		if q.Mode == ModeCrash {
			return fmt.Errorf("static detection cannot drive crash mode (crash validation executes the program)")
		}
		if q.CrashCheck {
			return fmt.Errorf("crashcheck needs dynamic execution; it cannot be combined with static detection")
		}
		if q.ReplayTrace != nil {
			return fmt.Errorf("static detection does not consume a trace")
		}
		if q.Optimize {
			return fmt.Errorf("optimize measures executions; it cannot be combined with static detection")
		}
	}
	if q.Optimize {
		if q.Mode == ModeCrash {
			return fmt.Errorf("optimize applies in repair or check mode, not crash mode")
		}
		if q.ReplayTrace != nil {
			return fmt.Errorf("optimize re-executes the program; it cannot consume a trace")
		}
	}
	if !q.CrashCheck && !q.Optimize {
		if q.Invariant != "" {
			return fmt.Errorf("invariant only applies with crashcheck or optimize")
		}
		if q.Recovery != "" {
			return fmt.Errorf("recovery only applies with crashcheck or optimize")
		}
		if q.CrashPoints != 0 {
			return fmt.Errorf("crash_points only applies with crashcheck or optimize")
		}
		if q.CrashImages != 0 {
			return fmt.Errorf("crash_images only applies with crashcheck or optimize")
		}
	}
	if q.CrashCheck && q.ReplayTrace != nil {
		return fmt.Errorf("crashcheck re-executes the program; it cannot consume a trace")
	}
	if q.Threads {
		if q.Static {
			return fmt.Errorf("threads needs dynamic execution; it cannot be combined with static detection")
		}
		if q.Optimize {
			return fmt.Errorf("optimize is single-schedule; it cannot be combined with threads")
		}
		if q.ReplayTrace != nil {
			return fmt.Errorf("threads explores interleavings; it cannot consume a trace")
		}
	} else if q.MaxSchedules != 0 {
		return fmt.Errorf("max_schedules only applies with threads")
	}
	if q.MaxSchedules < 0 {
		return fmt.Errorf("max_schedules must be >= 0, got %d", q.MaxSchedules)
	}
	if q.CrashPoints < 0 {
		return fmt.Errorf("crash_points must be >= 0, got %d", q.CrashPoints)
	}
	if q.CrashImages < 0 {
		return fmt.Errorf("crash_images must be >= 0, got %d", q.CrashImages)
	}
	if q.StepLimit < 0 {
		return fmt.Errorf("steplimit must be >= 0, got %d", q.StepLimit)
	}
	if q.TimeoutMS < 0 {
		return fmt.Errorf("timeout_ms must be >= 0, got %d", q.TimeoutMS)
	}
	return nil
}

// Key is the request's content-address: the SHA-256 of its SourceKey and
// of its canonical JSON encoding (defaults applied, Source left out since
// SourceKey covers it, in-process fields dropped). Two requests with equal
// keys demand identical work and — the pipeline being deterministic —
// yield byte-identical responses, which is what lets the daemon serve the
// second one from its response cache. The key never leaves the process.
func (q *Request) Key() string {
	c := *q
	c.DebugScores = nil
	c.CrashLog = nil
	c.CrashCache = nil
	c.CrashWorkers = 0
	c.SummaryStore = nil
	c.ReplayTrace = nil
	_ = c.Validate() // normalize defaults; an invalid request still hashes
	sk := c.SourceKey()
	c.Source = ""
	data, _ := json.Marshal(&c)
	return sha256Hex(sk, "\x00", string(data))
}

// SourceKey is the content-address of the program alone (name + text):
// the artifact-cache key under which compiled modules and crash-verdict
// caches are shared across requests that differ only in options, and the
// key the daemon hashes to pick a request's worker shard.
func (q *Request) SourceKey() string {
	name := q.Program
	if name == "" {
		name = "request.pmc"
	}
	return sha256Hex(name, "\x00", q.Source)
}

// sha256Hex returns the hex SHA-256 of the concatenated parts. They are
// streamed through a stack buffer: the hash takes bytes, and converting a
// whole program source would copy it.
func sha256Hex(parts ...string) string {
	h := sha256.New()
	var buf [4096]byte
	for _, s := range parts {
		for len(s) > 0 {
			n := copy(buf[:], s)
			h.Write(buf[:n])
			s = s[n:]
		}
	}
	var sum [sha256.Size]byte
	return hex.EncodeToString(h.Sum(sum[:0]))
}

// IsIR reports whether Source is textual IR rather than pmc.
func (q *Request) IsIR() bool {
	return strings.HasSuffix(strings.ToLower(q.Program), ".pmir")
}

// coreOptions maps the request onto the fixer/pipeline options.
func (q *Request) coreOptions() core.Options {
	opts := core.Options{
		DisableHoisting: q.IntraOnly,
		StepLimit:       q.StepLimit,
		DebugScores:     q.DebugScores,
		SummaryStore:    q.SummaryStore,
		MaxSchedules:    q.MaxSchedules,
	}
	switch q.Flush {
	case "clflushopt":
		opts.FlushKind = ir.CLFLUSHOPT
	case "clflush":
		opts.FlushKind = ir.CLFLUSH
	default:
		opts.FlushKind = ir.CLWB
	}
	if q.Marks == "trace-aa" {
		opts.Marks = core.TraceAA
	}
	if q.CrashCheck {
		opts.CrashCheck = q.crashOptions()
	}
	return opts
}

// crashOptions maps the request onto the crash-validation options.
func (q *Request) crashOptions() *crashsim.Options {
	return &crashsim.Options{
		Entry:     q.Entry,
		Args:      q.Args,
		Invariant: q.Invariant,
		Recovery:  q.Recovery,
		MaxPoints: q.CrashPoints,
		MaxImages: q.CrashImages,
		Cache:     q.CrashCache,
		Workers:   q.CrashWorkers,
		StepLimit: q.StepLimit,
		Log:       q.CrashLog,
	}
}
