package benchmark

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sync"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// answer is the part of a cli.Response document the known-answer checks
// read. It is decoded from the wire bytes, so the checks see exactly what
// a client sees.
type answer struct {
	BugsBefore  int    `json:"bugs_before"`
	SitesBefore int    `json:"sites_before"`
	BugsAfter   int    `json:"bugs_after"`
	Fixed       bool   `json:"fixed"`
	RepairedIR  string `json:"repaired_ir"`
	OptimizedIR string `json:"optimized_ir"`
	Crash       *struct {
		Passed bool `json:"passed"`
	} `json:"crash"`
	CrashRounds []json.RawMessage `json:"crash_rounds"`
	Schedules   *struct {
		Truncated bool `json:"truncated"`
	} `json:"schedules"`
	CrashBySchedule []struct {
		Report struct {
			Passed bool `json:"passed"`
		} `json:"report"`
	} `json:"crash_by_schedule"`
}

// facts are what the run keeps about a key's first answer, for metrics
// read off every later response of the same key.
type facts struct {
	scheduled, truncated bool
	rounds               int
}

// reference is a key's first answer: the digest of its raw bytes (equal
// bytes need no further work) and of its normalized form.
type reference struct {
	raw, norm [sha256.Size]byte
	facts     facts
}

// verifier checks every response of a run. The first response of a key
// must pass the key's known-answer check; every later one must equal the
// first after normalization.
type verifier struct {
	mu   sync.Mutex
	refs map[string]*reference
}

func newVerifier() *verifier { return &verifier{refs: make(map[string]*reference)} }

// compare checks a response of it against the key's first response; known
// is false when no response of the key has been verified yet.
func (v *verifier) compare(it *item, body []byte) (f facts, known bool, err error) {
	v.mu.Lock()
	ref := v.refs[it.key]
	v.mu.Unlock()
	if ref == nil {
		return facts{}, false, nil
	}
	if sha256.Sum256(body) == ref.raw {
		return ref.facts, true, nil
	}
	norm, err := normalize(body)
	if err != nil {
		return ref.facts, true, err
	}
	if sha256.Sum256(norm) != ref.norm {
		return ref.facts, true, fmt.Errorf("%s: response differs from the key's first response", it.key)
	}
	return ref.facts, true, nil
}

// verify checks one response of it: against the key's first response if
// there is one, otherwise against the key's known answer, after which it
// is the key's first response.
func (v *verifier) verify(it *item, body []byte) (facts, error) {
	if f, known, err := v.compare(it, body); known {
		return f, err
	}
	norm, err := normalize(body)
	if err != nil {
		return facts{}, err
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return facts{}, fmt.Errorf("%s: decode response: %w", it.key, err)
	}
	if it.check != nil {
		if err := it.check(&a); err != nil {
			return facts{}, fmt.Errorf("%s: %w", it.key, err)
		}
	}
	f := facts{
		scheduled: a.Schedules != nil,
		truncated: a.Schedules != nil && a.Schedules.Truncated,
		rounds:    len(a.CrashRounds),
	}
	v.mu.Lock()
	v.refs[it.key] = &reference{raw: sha256.Sum256(body), norm: sha256.Sum256(norm), facts: f}
	v.mu.Unlock()
	return f, nil
}

// normalize applies the chaos harness's response normalization — drop the
// crash reports' stats sub-objects, whose cache and copy-on-write counts
// depend on how parallel crash points race, and re-marshal with sorted
// keys — and also drops the stats of every per-schedule crash report.
// Every verdict and repair decision is kept.
func normalize(body []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return nil, fmt.Errorf("normalize: %w", err)
	}
	dropStats := func(v any) {
		if m, ok := v.(map[string]any); ok {
			delete(m, "stats")
		}
	}
	dropStats(doc["crash"])
	if rounds, ok := doc["crash_rounds"].([]any); ok {
		for _, r := range rounds {
			dropStats(r)
		}
	}
	if runs, ok := doc["crash_by_schedule"].([]any); ok {
		for _, r := range runs {
			if m, ok := r.(map[string]any); ok {
				dropStats(m["report"])
			}
		}
	}
	return json.Marshal(doc)
}

// The known-answer checks. Their references come from outside the code
// under test: the corpus's recorded bugs and return values, the
// hand-persisted build of the same program, and progen's checksum.

// wantSites checks the detector found exactly the corpus's recorded bugs.
func wantSites(n int) func(*answer) error {
	return func(a *answer) error {
		if a.SitesBefore != n {
			return fmt.Errorf("sites_before %d, want %d recorded bug(s)", a.SitesBefore, n)
		}
		return nil
	}
}

// wantRepaired checks the repair verdict: fixed, nothing left, and every
// crash report passed.
func wantRepaired(a *answer) error {
	if !a.Fixed || a.BugsAfter != 0 {
		return fmt.Errorf("repair not fixed (fixed %v, bugs_after %d)", a.Fixed, a.BugsAfter)
	}
	if a.Crash != nil && !a.Crash.Passed {
		return fmt.Errorf("crash validation failed")
	}
	for i, c := range a.CrashBySchedule {
		if !c.Report.Passed {
			return fmt.Errorf("crash validation failed under schedule %d", i)
		}
	}
	return nil
}

// wantReturn checks that irText, a returned module, still computes want
// (an empty irText is a module the request left unchanged).
func wantReturn(irText, entry string, args []uint64, want uint64) error {
	if irText == "" {
		return nil
	}
	m, err := ir.ParseModule(irText)
	if err != nil {
		return fmt.Errorf("parse returned IR: %w", err)
	}
	got, err := execute(m, entry, args)
	if err != nil {
		return fmt.Errorf("re-run returned IR: %w", err)
	}
	if got != want {
		return fmt.Errorf("returned IR computes %d, want %d", got, want)
	}
	return nil
}

// all chains checks.
func all(checks ...func(*answer) error) func(*answer) error {
	return func(a *answer) error {
		for _, c := range checks {
			if err := c(a); err != nil {
				return err
			}
		}
		return nil
	}
}

// execute runs entry on m without durability tracking.
func execute(m *ir.Module, entry string, args []uint64) (uint64, error) {
	mach, err := interp.New(m, interp.Options{NoTrack: true})
	if err != nil {
		return 0, err
	}
	return mach.Run(entry, args...)
}
