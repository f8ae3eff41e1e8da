package optimize

import (
	"fmt"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// progSig is everything one instrumented execution plus both detectors
// observe about a build — the identity an edit must preserve.
type progSig struct {
	ret   uint64
	simNs float64
	// events is the PM event kind sequence; ckpts the durability-state
	// signature at every durability point (including the implicit final
	// one), so the durable image and the pending store sequences at
	// every point a crash contract anchors to must be preserved.
	events []interp.PMEventKind
	ckpts  []uint64
	// dyn is the dynamic detector report multiset, keyed by (func,
	// source location, needed mechanisms) — deliberately not by
	// instruction ID, which renumbering shifts across edits. stat is
	// the static report set aggregated per site to its report count and
	// unioned mechanism class (static.Result.NeedsBySite shape): the
	// static lattice deliberately over-approximates, so the per-context
	// needs bits behind one site can shift when a dynamically-dead
	// fence disappears, but the sites the analyzer reports and each
	// site's classification must not.
	dyn  map[string]int
	stat map[string]int

	lints []*static.Lint
	tr    *trace.Trace
	// check is the dynamic detector's verdict on the run that recorded tr.
	check *pmcheck.Result
}

// measure executes mod's workload once under full instrumentation, the
// dynamic detector d running with it, then runs the static detector under
// sp.
func measure(mod *ir.Module, entry string, opts Options, d *pmcheck.Detector, sp *obs.Span) (*progSig, error) {
	sig := &progSig{}
	if err := sig.execute(mod, entry, opts, d); err != nil {
		return nil, err
	}
	if err := sig.analyze(mod, entry, sp); err != nil {
		return nil, err
	}
	return sig, nil
}

// execute runs mod's workload once, traced and with d detecting online,
// filling the signature's trace, return value, simulated time, PM event
// log, durability-point signatures and dynamic report multiset.
func (sig *progSig) execute(mod *ir.Module, entry string, opts Options, d *pmcheck.Detector) error {
	tr := &trace.Trace{Program: mod.Name}
	sig.tr = tr
	var m *interp.Machine
	m, err := interp.New(mod, interp.Options{
		Trace:     tr,
		Detector:  d,
		StepLimit: opts.StepLimit,
		Deadline:  opts.Deadline,
		OnPMEvent: func(k int, kind interp.PMEventKind) error {
			if kind == interp.EvCheckpoint {
				sig.ckpts = append(sig.ckpts, stateSig(m.CaptureCrashState()))
			}
			return nil
		},
	})
	if err != nil {
		return err
	}
	ret, err := m.Run(entry, opts.Args...)
	if err != nil {
		return err
	}
	sig.ret = ret
	sig.simNs = m.SimTime()
	sig.events = append([]interp.PMEventKind(nil), m.PMEventLog()...)
	sig.check = d.Result()
	sig.dyn = dynSig(sig.check)
	return nil
}

// dynSig is the dynamic detector's report multiset (progSig.dyn).
func dynSig(res *pmcheck.Result) map[string]int {
	dyn := make(map[string]int, len(res.Reports))
	for _, r := range res.Reports {
		s := r.Store.Site()
		dyn[reportKey(s.Func, s.Loc, r.NeedFlush, r.NeedFence)]++
	}
	return dyn
}

// analyze runs the static analyzer under a static-analyze span of sp,
// filling the signature's lints and static report set. It publishes no
// static.* counters: those count the request's own static results.
func (sig *progSig) analyze(mod *ir.Module, entry string, sp *obs.Span) error {
	asp := sp.Start("static-analyze")
	sres, err := static.AnalyzeWithStore(mod, entry, nil)
	asp.End()
	if err != nil {
		return fmt.Errorf("static analysis: %w", err)
	}
	sig.lints = sres.Lints
	type siteAgg struct {
		count                int
		needFlush, needFence bool
	}
	agg := make(map[string]*siteAgg, len(sres.Reports))
	for _, r := range sres.Reports {
		k := fmt.Sprintf("%s|%s", r.Func, r.Loc)
		a := agg[k]
		if a == nil {
			a = &siteAgg{}
			agg[k] = a
		}
		a.count++
		a.needFlush = a.needFlush || r.NeedFlush
		a.needFence = a.needFence || r.NeedFence
	}
	sig.stat = make(map[string]int, len(agg))
	for k, a := range agg {
		sig.stat[fmt.Sprintf("%s|%t|%t", k, a.needFlush, a.needFence)] = a.count
	}
	return nil
}

func reportKey(fn string, loc ir.Loc, needFlush, needFence bool) string {
	return fmt.Sprintf("%s|%s|%t|%t", fn, loc, needFlush, needFence)
}

// compare checks the always-on identity tier: same workload result, same
// durable state at every durability point, same detector verdicts. It
// returns ok plus a rejection reason.
func (s *progSig) compare(after *progSig) (bool, string) {
	if after.ret != s.ret {
		return false, fmt.Sprintf("workload return changed: %d -> %d", s.ret, after.ret)
	}
	if len(after.ckpts) != len(s.ckpts) {
		return false, fmt.Sprintf("durability point count changed: %d -> %d", len(s.ckpts), len(after.ckpts))
	}
	for i := range s.ckpts {
		if after.ckpts[i] != s.ckpts[i] {
			return false, fmt.Sprintf("durable state at durability point %d changed", i+1)
		}
	}
	if !sameMultiset(s.dyn, after.dyn) {
		return false, "dynamic detector reports changed"
	}
	if !sameMultiset(s.stat, after.stat) {
		return false, "static detector report sites or classes changed"
	}
	return true, ""
}

func sameMultiset(a, b map[string]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

// stateSig hashes a durability state: the content hash of the committed
// durable image, then every pending line's address and its pending store
// sequence (address and bytes, in tracker order). The flush progress of
// a pending store is deliberately excluded: it does not change the set
// of feasible post-crash images under the per-line prefix model, and
// including it would spuriously reject coalesce edits that only shift
// which flush parks a line.
func stateSig(cs *pmem.CrashState) uint64 {
	h := cs.BaseHash()
	for _, ln := range cs.Lines {
		h = mix(h, ln.Line)
		for _, st := range ln.Stores {
			h = mix(h, st.Addr)
			h = mix(h, uint64(st.Size()))
			for _, b := range st.Data() {
				h = mix(h, uint64(b))
			}
		}
	}
	return h
}

// mix folds v into h (FNV-1a over the value's bytes).
func mix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= 1099511628211
		v >>= 8
	}
	return h
}

// alignKey names a crash point in a build-independent coordinate space:
// the Ord-th event of kind Kind. The optimizer's edits delete only
// flush and fence events, so store, NT-store, and checkpoint ordinals
// correspond one-to-one between the original and every edited build —
// crashing both at the same key crashes them at the same program
// moment. Flush and fence events are never chosen as crash points: a
// flush cannot change the feasible image set (pending content is
// per-line prefix-cut regardless of flush progress), and a fence only
// commits stores whose full-cut image is already feasible at the
// preceding store point, so store/checkpoint alignment subsumes them.
type alignKey struct {
	Kind interp.PMEventKind
	Ord  int
}

// alignKeys selects the aligned crash points from a baseline event
// stream under the same eligibility rules as crashsim's stratified
// selection: every checkpoint (only the last when a parameterless
// crash_check is the sole entry), plus — when an invariant entry exists
// to judge mid-stream crashes — an even spread of store events up to
// the budget.
func alignKeys(events []interp.PMEventKind, maxPoints int, hasInvariant bool, rec *ir.Func) []alignKey {
	if maxPoints <= 0 {
		maxPoints = crashsim.DefaultMaxPoints
	}
	ords := make(map[interp.PMEventKind]int)
	var ckpts, stores []alignKey
	for _, k := range events {
		ords[k]++
		switch k {
		case interp.EvCheckpoint:
			ckpts = append(ckpts, alignKey{k, ords[k]})
		case interp.EvStore, interp.EvNTStore:
			stores = append(stores, alignKey{k, ords[k]})
		}
	}
	if !hasInvariant {
		if rec != nil && len(rec.Params) == 0 && len(ckpts) > 1 {
			ckpts = ckpts[len(ckpts)-1:]
		}
		return ckpts
	}
	keys := ckpts
	if room := maxPoints - len(keys); room > 0 && len(stores) > 0 {
		if room >= len(stores) {
			keys = append(keys, stores...)
		} else {
			for i := 0; i < room; i++ {
				keys = append(keys, stores[i*len(stores)/room])
			}
		}
	}
	return keys
}

// keysToPoints maps aligned keys onto a build's 1-based PM event
// indices. A missing key means the builds' event streams diverged in a
// way edits cannot cause, and fails the proof.
func keysToPoints(events []interp.PMEventKind, keys []alignKey) ([]int, error) {
	index := make(map[alignKey]int, len(events))
	ords := make(map[interp.PMEventKind]int)
	for i, k := range events {
		ords[k]++
		index[alignKey{k, ords[k]}] = i + 1
	}
	pts := make([]int, 0, len(keys))
	for _, k := range keys {
		p, ok := index[k]
		if !ok {
			return nil, fmt.Errorf("no %v event with ordinal %d in this build", k.Kind, k.Ord)
		}
		pts = append(pts, p)
	}
	return pts, nil
}

// failureSig canonicalizes a crashsim failure set into a multiset keyed
// by the aligned coordinate of the crash point plus everything about
// how recovery rejected it — the object two builds must agree on
// exactly.
func failureSig(rep *crashsim.Report, events []interp.PMEventKind) map[string]int {
	sig := make(map[string]int, len(rep.Failures))
	for _, f := range rep.Failures {
		ord := 0
		for i := 0; i < f.Event && i < len(events); i++ {
			if events[i] == f.Kind {
				ord++
			}
		}
		how := fmt.Sprintf("ret=%d", f.Ret)
		if f.Err != nil {
			how = crashsim.FirstLine(f.Err.Error())
		}
		sig[fmt.Sprintf("%v#%d|done=%d|cuts=%v|@%s|%s", f.Kind, ord, f.Completed, f.Cuts, f.Entry, how)]++
	}
	return sig
}

// crashCompare runs the edited build through crashsim at the aligned
// points and demands verdict identity with the current build. It
// returns the edited build's failure signature and an empty reason on
// success. The shared cache serves every candidate: a candidate that
// edits recovery-reachable code changes its verdict keys.
func crashCompare(mod *ir.Module, after *progSig, keys []alignKey, cur map[string]int, opts Options, entry string) (map[string]int, string) {
	pts, err := keysToPoints(after.events, keys)
	if err != nil {
		return nil, "crash-point alignment failed: " + err.Error()
	}
	rep, err := crashsim.Validate(mod, csOptions(opts, entry, pts, nil))
	if err != nil {
		return nil, "crashsim failed after edit: " + crashsim.FirstLine(err.Error())
	}
	sig := failureSig(rep, after.events)
	if !sameMultiset(cur, sig) {
		return nil, fmt.Sprintf("crashsim verdicts changed: %d failing schedule(s) before, %d after", total(cur), total(sig))
	}
	return sig, ""
}

func total(m map[string]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func csOptions(opts Options, entry string, pts []int, sp *obs.Span) crashsim.Options {
	return crashsim.Options{
		Entry:     entry,
		Args:      opts.Args,
		Invariant: opts.Invariant,
		Recovery:  opts.Recovery,
		Points:    pts,
		MaxImages: opts.MaxImages,
		Workers:   opts.Workers,
		StepLimit: opts.StepLimit,
		Deadline:  opts.Deadline,
		Cache:     opts.Cache,
		Obs:       sp,
	}
}
