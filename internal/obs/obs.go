// Package obs is the pipeline's telemetry subsystem: hierarchical spans
// over the repair phases (parse → lower → trace → detect → plan → apply →
// revalidate), named counters and power-of-two histograms, and the repair
// audit trail that maps every inserted flush, fence, and persistent
// subprogram back to the report and heuristic decision that produced it.
//
// The package has no dependencies beyond the standard library and — by
// design — imports nothing else from this module, so every layer (lang,
// interp, pmcheck, static, core, bench, the commands) can record into it.
//
// Everything hangs off a *Recorder. A nil *Recorder (and the nil *Span it
// hands out) is the no-op default: every method nil-checks its receiver
// and returns immediately, so an uninstrumented run pays one pointer
// comparison per telemetry point and allocates nothing. Hot loops (the
// interpreter dispatch) never call into obs at all; they keep plain
// integer counters and flush them into a span once per run.
//
// Span parenting is explicit — a child is created with (*Span).Start, not
// from goroutine-local state — so concurrent pipelines recording into one
// Recorder can never interleave parents across goroutines: a span's
// ancestry is fixed by the code path that created it.
package obs

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Recorder collects spans, counters, histograms, and audit entries for
// one tool invocation. The zero value is not usable; call New. A nil
// *Recorder is valid everywhere and records nothing.
type Recorder struct {
	mu       sync.Mutex
	epoch    time.Time
	spans    []*Span
	counters map[string]int64
	hists    map[string]*Histogram
	audit    []*AuditEntry
	allocs   bool
}

// New returns an empty, enabled recorder.
func New() *Recorder {
	return &Recorder{
		epoch:    time.Now(),
		counters: make(map[string]int64),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the recorder actually records.
func (r *Recorder) Enabled() bool { return r != nil }

// SetTrackAllocs enables per-span allocation deltas via
// runtime.ReadMemStats. ReadMemStats is process-global and far from free,
// so this is off by default and only sensible for the handful of
// phase-level spans a CLI run creates; with concurrent pipelines the
// deltas include the other goroutines' allocations and are approximate.
func (r *Recorder) SetTrackAllocs(on bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.allocs = on
	r.mu.Unlock()
}

// Span is one timed region of the pipeline. Fields are written while the
// recorder lock is held; read them only after the span (and any
// concurrent recording) has finished, e.g. via (*Recorder).Spans.
type Span struct {
	rec *Recorder

	// ID is the span's index in creation order; Parent is the parent
	// span's ID, or -1 for a root.
	ID     int
	Parent int
	Name   string
	// Begin is the offset from the recorder's epoch; Dur is filled by End.
	Begin time.Duration
	Dur   time.Duration
	// Attrs are optional string annotations (entry function, file, ...).
	Attrs map[string]string
	// AllocBytes is the runtime.MemStats.TotalAlloc delta over the span
	// when SetTrackAllocs(true) was called before the span started.
	AllocBytes uint64

	allocStart uint64
	ended      bool
}

// StartSpan opens a root span.
func (r *Recorder) StartSpan(name string) *Span {
	return r.newSpan(name, -1)
}

// Start opens a child span. It is valid on a nil span (returns nil).
func (s *Span) Start(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.newSpan(name, s.ID)
}

func (r *Recorder) newSpan(name string, parent int) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	s := &Span{
		rec:    r,
		ID:     len(r.spans),
		Parent: parent,
		Name:   name,
		Begin:  time.Since(r.epoch),
	}
	if r.allocs {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.allocStart = ms.TotalAlloc
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

// End closes the span, fixing its duration (and allocation delta when
// tracking is on). A second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	if !s.ended {
		s.ended = true
		s.Dur = time.Since(r.epoch) - s.Begin
		if r.allocs {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			if ms.TotalAlloc >= s.allocStart {
				s.AllocBytes = ms.TotalAlloc - s.allocStart
			}
		}
	}
	r.mu.Unlock()
}

// SetAttr attaches a string annotation to the span.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.rec.mu.Lock()
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
	s.rec.mu.Unlock()
}

// Recorder returns the span's recorder (nil for a nil span).
func (s *Span) Recorder() *Recorder {
	if s == nil {
		return nil
	}
	return s.rec
}

// Add increments a named counter (delegating to the recorder).
func (s *Span) Add(name string, delta int64) { s.Recorder().Add(name, delta) }

// Observe records a value into a named histogram (delegating).
func (s *Span) Observe(name string, v int64) { s.Recorder().Observe(name, v) }

// Audit appends an audit entry (delegating to the recorder).
func (s *Span) Audit(e AuditEntry) { s.Recorder().RecordAudit(e) }

// Add increments a named counter.
func (r *Recorder) Add(name string, delta int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.counters[name] += delta
	r.mu.Unlock()
}

// Counter returns a counter's current value. Product code exports the
// Counters snapshot; this single-value reader is for tests.
func (r *Recorder) Counter(name string) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counters[name]
}

// Counters returns a copy of all counters.
func (r *Recorder) Counters() map[string]int64 {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counters))
	for k, v := range r.counters {
		out[k] = v
	}
	return out
}

// Spans returns the recorded spans in creation order. Call only after
// recording has quiesced; the returned spans are the live objects.
func (r *Recorder) Spans() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Span(nil), r.spans...)
}

// Histogram aggregates int64 observations into power-of-two buckets:
// bucket k counts values v with 2^(k-1) <= v < 2^k (bucket 0 counts
// v <= 0 and v == 1 lands in bucket 1). Sparse representation: only
// non-empty buckets are stored.
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets map[int]int64
}

func bucketOf(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBound returns the inclusive upper bound of bucket k.
func BucketBound(k int) int64 {
	if k <= 0 {
		return 0
	}
	return (int64(1) << k) - 1
}

func (h *Histogram) observe(v int64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	if h.Buckets == nil {
		h.Buckets = make(map[int]int64)
	}
	h.Buckets[bucketOf(v)]++
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observations
// from the power-of-two buckets: it returns the inclusive upper bound of
// the bucket the quantile rank falls in, clamped to the observed Min/Max.
// The estimate is exact at the extremes and within the bucket's factor of
// two elsewhere — good enough for the latency percentiles /metrics serves.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	// The extremes are exact by definition — and bucket 0's bound (0)
	// would otherwise overstate a negative Min.
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := int64(q * float64(h.Count-1)) // 0-based rank of the quantile
	keys := make([]int, 0, len(h.Buckets))
	for k := range h.Buckets {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	var cum int64
	for _, k := range keys {
		cum += h.Buckets[k]
		if cum > rank {
			b := BucketBound(k)
			if b > h.Max {
				b = h.Max
			}
			if b < h.Min {
				b = h.Min
			}
			return b
		}
	}
	return h.Max
}

// Observe records a value into the named histogram.
func (r *Recorder) Observe(name string, v int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	h.observe(v)
	r.mu.Unlock()
}

// Merge adds src's counters into r. hippocratesd gives every job a
// private recorder (so span trees and audit trails stay per-job) and
// merges each finished job's counters into one long-lived recorder for
// the /metrics aggregate: counters count events, and events accumulate.
//
// Nothing else is merged. The daemon observes the latencies it serves
// itself; a job's own histograms, spans and audit entries stay on the
// job's recorder, whose span IDs and audit Seq numbers would collide
// under concatenation.
func (r *Recorder) Merge(src *Recorder) {
	if r == nil || src == nil {
		return
	}
	counters := src.Counters()
	r.mu.Lock()
	for k, v := range counters {
		r.counters[k] += v
	}
	r.mu.Unlock()
}

// merge folds src into h: counts and sums add, min/max widen, buckets
// add pairwise. An empty src is a no-op (its zero Min/Max carry no
// information). Windowed.Snapshot folds its slots with it.
func (h *Histogram) merge(src *Histogram) {
	if src == nil || src.Count == 0 {
		return
	}
	if h.Count == 0 || src.Min < h.Min {
		h.Min = src.Min
	}
	if h.Count == 0 || src.Max > h.Max {
		h.Max = src.Max
	}
	h.Count += src.Count
	h.Sum += src.Sum
	if h.Buckets == nil {
		h.Buckets = make(map[int]int64, len(src.Buckets))
	}
	for k, n := range src.Buckets {
		h.Buckets[k] += n
	}
}

// Histograms returns a deep copy of all histograms.
func (r *Recorder) Histograms() map[string]*Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]*Histogram, len(r.hists))
	for k, h := range r.hists {
		cp := *h
		cp.Buckets = make(map[int]int64, len(h.Buckets))
		for b, n := range h.Buckets {
			cp.Buckets[b] = n
		}
		out[k] = &cp
	}
	return out
}

// PhaseTotal is the aggregate of all spans sharing one name.
type PhaseTotal struct {
	Name  string
	Spans int
	Total time.Duration
	Alloc uint64
}

// PhaseTotals folds the spans into per-name totals, ordered by each
// name's first appearance — the phase-level timing breakdown the paper's
// evaluation reports (its Fig. 9).
func (r *Recorder) PhaseTotals() []PhaseTotal {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	idx := make(map[string]int)
	var out []PhaseTotal
	for _, s := range r.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, PhaseTotal{Name: s.Name})
		}
		out[i].Spans++
		out[i].Total += s.Dur
		out[i].Alloc += s.AllocBytes
	}
	return out
}

// TopCounters returns the n largest counters whose name starts with
// prefix, as (suffix, value) pairs sorted by descending value then name —
// used for the top-10 opcode table in the metrics export.
func (r *Recorder) TopCounters(prefix string, n int) []NamedCount {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	var all []NamedCount
	for k, v := range r.counters {
		if len(k) > len(prefix) && k[:len(prefix)] == prefix {
			all = append(all, NamedCount{Name: k[len(prefix):], Count: v})
		}
	}
	r.mu.Unlock()
	sort.Slice(all, func(i, j int) bool {
		if all[i].Count != all[j].Count {
			return all[i].Count > all[j].Count
		}
		return all[i].Name < all[j].Name
	})
	if len(all) > n {
		all = all[:n]
	}
	return all
}

// NamedCount is one (name, count) pair.
type NamedCount struct {
	Name  string
	Count int64
}
