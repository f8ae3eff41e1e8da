// Package crashsim is the crash-injection validation engine: it turns
// the repo's "do no harm" claim from a single end-of-run spot check into
// a validated property over crash schedules.
//
// The engine walks a program's PM event stream (stores, NT-stores,
// flushes, fences, durability points), injects a crash at every event
// boundary (exhaustively on small traces, by deterministic stratified
// sampling above a budget), expands each crash point into the set of
// feasible post-crash PM images, and boots a fresh interpreter on every
// distinct image to run the program's declared recovery entrypoints. A
// recovery entry fails a schedule by returning non-zero, tripping
// pm_assert, or faulting.
//
// # Schedule model
//
// The feasible images follow the pmem.Tracker state machine at cache-line
// granularity: a line writes back to PM atomically and cumulatively, so
// at a crash the line's durable content is some *prefix* of its pending
// store sequence (the content at its last eviction), chosen independently
// per line. A crash point with pending lines of sizes n_1..n_L therefore
// has Π(n_i+1) feasible images — not 2^stores: arbitrary subsets within
// a line are not reachable by any eviction order.
//
// # Fast path
//
// Two workload executions cover every crash point: a probe run learns
// the event stream, then a capture run snapshots the durability state at
// each selected boundary (copy-on-write, so unchanged durable pages are
// shared across all points). Per point, a pmem.ImageBuilder walks the
// schedule list by applying per-line deltas between consecutive cut
// vectors instead of rebuilding each image from the durable base, and a
// content-addressed VerdictCache maps image hashes to recovery
// outcomes, so schedules that collapse to byte-identical images boot
// recovery exactly once. Dedup never changes a verdict — the interpreter
// is deterministic over image bytes — and Options.NoDedup turns it off
// for debugging suspected divergence.
//
// # Recovery-entry contract
//
// Programs declare up to two entries, both taking either no parameter or
// one int (the number of durability points passed before the crash):
//
//   - invariant_check: a structural consistency predicate that must hold
//     on every feasible image of a correct build, at every crash point.
//     It may not assume any unfenced data arrived or is ordered.
//   - crash_check: the durability promise anchored at durability points.
//     It runs only when the crash lands on a checkpoint event, where a
//     repaired build provably has an empty pending set (that is exactly
//     what Hippocrates' fixes guarantee), so its promises are checkable
//     without false positives. A no-parameter crash_check states the
//     whole workload's promises and runs only at the final durability
//     point.
package crashsim

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
	"hippocrates/internal/pmem"
)

// DefaultMaxPoints bounds how many crash points are simulated when
// Options.MaxPoints is zero. Checkpoint events are always included.
const DefaultMaxPoints = 256

// DefaultMaxImages bounds the feasible images enumerated per crash point
// when Options.MaxImages is zero.
const DefaultMaxImages = 16

// Options configures one validation run.
type Options struct {
	// Entry is the workload entrypoint (default "main"); Args its
	// integer arguments.
	Entry string
	Args  []uint64
	// Invariant and Recovery name the two recovery entries (defaults
	// "invariant_check" and "crash_check"). A named entry that the
	// module does not define is skipped; if neither exists, Validate
	// returns an error. Set a name to "-" to disable that entry even
	// when the module defines it.
	Invariant string
	Recovery  string
	// MaxPoints bounds simulated crash points (0 = DefaultMaxPoints).
	// All checkpoint events are always kept; the remaining budget is
	// spread evenly over the other events, and the pruning is logged.
	MaxPoints int
	// Points, when non-empty, names the exact crash points to simulate
	// (1-based PM event indices), bypassing the stratified selection and
	// MaxPoints. Out-of-range entries are dropped, duplicates collapse,
	// and the list is sorted. internal/optimize uses this to crash two
	// program variants at corresponding events (aligned by per-kind
	// ordinal) so their verdict sets are comparable event-for-event.
	Points []int
	// MaxImages bounds feasible images per crash point (0 =
	// DefaultMaxImages). Below the bound enumeration is exhaustive;
	// above it, corner schedules (nothing evicted / everything evicted),
	// single-line deviations, and seeded pseudo-random schedules fill
	// the budget deterministically.
	MaxImages int
	// Workers sizes the parallel crash-point pool (0 = GOMAXPROCS,
	// capped at 8).
	Workers int
	// Seed drives the deterministic schedule sampling (0 means 1).
	Seed int64
	// Schedule, when non-empty, is the thread-interleaving choice prefix
	// (see interp.Options.Schedule) the workload runs under: crashes are
	// injected within that interleaving's PM event stream. The probe and
	// capture runs both replay it; recovery entries boot single-threaded
	// as usual. internal/core sweeps one Validate per explored schedule.
	Schedule []int
	// StepLimit / Deadline bound every interpreter run the engine makes
	// (the probe, the capture run, each recovery run).
	StepLimit int64
	Deadline  time.Time
	// NoDedup disables the content-addressed verdict dedup: every
	// schedule materializes its image and boots recovery even when a
	// byte-identical image was already judged. Point selection, schedule
	// enumeration, and verdicts are unchanged — dedup only skips
	// provably redundant boots. It is the reference path the dedup ≡
	// no-dedup oracle (TestDedupVerdictsIdentical) and the crash-sweep
	// ablation benchmark compare against; no command exposes it.
	NoDedup bool
	// Cache, when non-nil, carries memoized recovery verdicts across
	// Validate calls (the incremental-revalidation hook core.RunAndRepair
	// uses between candidate fixes). Nil gives the run a private cache.
	// Ignored with NoDedup.
	Cache *VerdictCache
	// Obs receives "crashsim" child spans and schedule counters.
	Obs *obs.Span
	// Log, when non-nil, receives pruning notices and per-failure lines.
	Log io.Writer
}

// Failure describes one failed crash schedule: the crash point, the
// per-line eviction prefix that produced the image, and how recovery
// rejected it.
type Failure struct {
	// Event is the 1-based PM event index the crash was injected at.
	Event int
	// Kind is the event's kind (store, flush, fence, checkpoint, ...).
	Kind interp.PMEventKind
	// Completed is the number of durability points passed before the
	// crash (the argument handed to parameterized recovery entries).
	Completed int
	// Cuts is the failing schedule: entry i is how many of pending line
	// i's stores reached PM (see pmem.Tracker.PendingLines).
	Cuts []int
	// Entry is the recovery entrypoint that rejected the image.
	Entry string
	// Err is the recovery error (pm_assert, fault, limit), or nil when
	// the entry returned the non-zero value Ret instead.
	Err error
	Ret uint64
}

func (f Failure) String() string {
	how := fmt.Sprintf("returned %d", int64(f.Ret))
	if f.Err != nil {
		how = firstLine(f.Err.Error())
	}
	return fmt.Sprintf("crash at event %d (%s, %d checkpoint(s) done), schedule %v: @%s %s",
		f.Event, f.Kind, f.Completed, f.Cuts, f.Entry, how)
}

// Report is the outcome of one validation run.
type Report struct {
	// TotalEvents is the PM event count of the workload; Points of them
	// were crash-injected and PrunedPoints skipped under MaxPoints.
	TotalEvents  int
	Points       int
	PrunedPoints int
	// PointEvents lists the simulated crash points (ascending 1-based PM
	// event indices) — the deterministic output of the stratified point
	// selection, identical whatever the dedup mode.
	PointEvents []int
	// Schedules counts evaluated post-crash schedules; PrunedSchedules
	// counts feasible images that the per-point budget skipped.
	Schedules       int
	PrunedSchedules int64
	// ImagesBuilt counts images actually materialized and booted into a
	// recovery machine; DedupedSchedules counts schedules whose every
	// applicable entry was served from the verdict cache, so no image
	// was built for them at all.
	ImagesBuilt      int
	DedupedSchedules int
	// CacheHits / CacheMisses break down this run's verdict-cache
	// lookups (one per applicable entry per schedule; zero with NoDedup).
	CacheHits   int64
	CacheMisses int64
	// PagesShared / PagesCopied are the copy-on-write page stats of the
	// run's capture and image construction: references handed out
	// instead of page copies, and pages actually privatized by writes.
	PagesShared int64
	PagesCopied int64
	// Failures holds the first failing schedule of every failed crash
	// point, ordered by event index.
	Failures []Failure
	// InvariantEntry / RecoveryEntry are the entries actually run (""
	// when absent).
	InvariantEntry string
	RecoveryEntry  string
	// DedupEnabled records whether the content-addressed fast path was
	// on (it is unless Options.NoDedup).
	DedupEnabled bool
}

// Passed reports whether every evaluated schedule recovered cleanly.
func (r *Report) Passed() bool { return len(r.Failures) == 0 }

// DedupSummary renders the one-line dedup/COW accounting that Summary
// (and the CLIs, by default) print.
func (r *Report) DedupSummary() string {
	if !r.DedupEnabled {
		return fmt.Sprintf("crashsim: dedup disabled: %d image(s) built (cow: %d page(s) shared, %d copied)",
			r.ImagesBuilt, r.PagesShared, r.PagesCopied)
	}
	return fmt.Sprintf("crashsim: dedup: %d of %d schedule(s) reused a cached verdict, %d image(s) built (cache %d hit(s)/%d miss(es); cow: %d page(s) shared, %d copied)",
		r.DedupedSchedules, r.Schedules, r.ImagesBuilt, r.CacheHits, r.CacheMisses, r.PagesShared, r.PagesCopied)
}

// Summary renders the report for CLI output.
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "crashsim: %d crash point(s) of %d PM events, %d schedule(s) evaluated",
		r.Points, r.TotalEvents, r.Schedules)
	if r.PrunedPoints > 0 || r.PrunedSchedules > 0 {
		fmt.Fprintf(&b, " (pruned: %d point(s), %d schedule(s))", r.PrunedPoints, r.PrunedSchedules)
	}
	b.WriteString("\n")
	b.WriteString(r.DedupSummary())
	b.WriteString("\n")
	if r.Passed() {
		b.WriteString("crashsim: all schedules recovered cleanly\n")
		return b.String()
	}
	fmt.Fprintf(&b, "crashsim: %d crash point(s) FAILED recovery:\n", len(r.Failures))
	for _, f := range r.Failures {
		fmt.Fprintf(&b, "  %s\n", f)
	}
	return b.String()
}

// entrySpec is a resolved recovery entry.
type entrySpec struct {
	name  string
	arity int
}

// Validate crash-injects mod's workload and checks every enumerated
// post-crash image against the module's recovery entries. The returned
// error covers engine-level problems (missing entries, a workload that
// does not complete); schedule failures land in the report.
func Validate(mod *ir.Module, opts Options) (rep *Report, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 16<<10)
			buf = buf[:runtime.Stack(buf, false)]
			err = fmt.Errorf("crashsim: panic during validation: %v\n%s", r, buf)
		}
	}()

	if opts.Entry == "" {
		opts.Entry = "main"
	}
	if opts.Invariant == "" {
		opts.Invariant = "invariant_check"
	}
	if opts.Recovery == "" {
		opts.Recovery = "crash_check"
	}
	if opts.MaxPoints <= 0 {
		opts.MaxPoints = DefaultMaxPoints
	}
	if opts.MaxImages <= 0 {
		opts.MaxImages = DefaultMaxImages
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
		if opts.Workers > 8 {
			opts.Workers = 8
		}
	}

	inv, err := resolveEntry(mod, opts.Invariant)
	if err != nil {
		return nil, err
	}
	rec, err := resolveEntry(mod, opts.Recovery)
	if err != nil {
		return nil, err
	}
	if inv == nil && rec == nil {
		return nil, fmt.Errorf("crashsim: module declares neither @%s nor @%s; nothing to validate",
			opts.Invariant, opts.Recovery)
	}

	cache := opts.Cache
	if opts.NoDedup {
		cache = nil
	} else if cache == nil {
		cache = NewVerdictCache()
	}

	sp := opts.Obs.Start("crashsim")
	defer sp.End()
	sp.SetAttr("entry", opts.Entry)

	// Probe run: learn the PM event stream (and renumber the module once,
	// so the parallel workers below share it read-only).
	probe, err := interp.New(mod, interp.Options{StepLimit: opts.StepLimit, Deadline: opts.Deadline, Schedule: opts.Schedule})
	if err != nil {
		return nil, err
	}
	if _, err := probe.Run(opts.Entry, opts.Args...); err != nil {
		return nil, fmt.Errorf("crashsim: workload @%s did not complete: %w", opts.Entry, err)
	}
	log := append([]interp.PMEventKind(nil), probe.PMEventLog()...)

	var points []int
	if len(opts.Points) > 0 {
		seen := make(map[int]bool, len(opts.Points))
		for _, p := range opts.Points {
			if p >= 1 && p <= len(log) && !seen[p] {
				seen[p] = true
				points = append(points, p)
			}
		}
		sort.Ints(points)
	} else {
		points = selectPoints(log, opts.MaxPoints, inv != nil, rec)
	}
	rep = &Report{
		TotalEvents: len(log), Points: len(points), PrunedPoints: len(log) - len(points),
		PointEvents: points, DedupEnabled: !opts.NoDedup,
	}
	if inv != nil {
		rep.InvariantEntry = inv.name
	}
	if rec != nil {
		rep.RecoveryEntry = rec.name
	}
	if rep.PrunedPoints > 0 && opts.Log != nil {
		fmt.Fprintf(opts.Log, "crashsim: simulating %d of %d PM events (%d pruned or ineligible; every eligible checkpoint kept)\n",
			len(points), len(log), rep.PrunedPoints)
	}

	// Capture run: one more workload execution snapshots the frozen
	// durability state at every selected boundary, replacing the
	// re-execution per crash point the first engine did. The interpreter
	// is deterministic, so a capture at event k is the exact state a
	// CrashAtEvent=k run would crash with.
	captures := make([]*pmem.CrashState, len(points))
	want := make(map[int]int, len(points))
	for i, p := range points {
		want[p] = i
	}
	var cm *interp.Machine
	cm, err = interp.New(mod, interp.Options{
		StepLimit: opts.StepLimit, Deadline: opts.Deadline, Schedule: opts.Schedule,
		OnPMEvent: func(k int, _ interp.PMEventKind) error {
			if i, ok := want[k]; ok {
				captures[i] = cm.CaptureCrashState()
			}
			return nil
		},
	})
	if err != nil {
		return nil, err
	}
	if _, err := cm.Run(opts.Entry, opts.Args...); err != nil {
		return nil, fmt.Errorf("crashsim: capture run of @%s did not complete: %w", opts.Entry, err)
	}
	var cow *pmem.CowStats
	for i := range captures {
		if captures[i] == nil {
			return nil, fmt.Errorf("crashsim: crash point %d was not reached on the capture run", points[i])
		}
	}
	if len(captures) > 0 {
		// One snapshot family covers the whole run: the tracker's durable
		// image, every capture, and every image overlay derived from them.
		cow = captures[0].Durable.Stats()
	}

	// completed[i] = durability points passed once event points[i] (its
	// own checkpoint included) has executed.
	ckptsUpTo := make([]int, len(log)+1)
	for i, k := range log {
		ckptsUpTo[i+1] = ckptsUpTo[i]
		if k == interp.EvCheckpoint {
			ckptsUpTo[i+1]++
		}
	}
	lastEvent := len(log)

	results := make([]pointResult, len(points))
	var wg sync.WaitGroup
	work := make(chan int)
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable RNG per worker: Seed() reinitializes the
			// source in place, producing the exact stream a fresh
			// rand.NewSource(seed) would, without its ~5KB allocation
			// per crash point.
			src := rand.NewSource(1)
			rng := rand.New(src)
			for idx := range work {
				res := &results[idx]
				func() {
					defer func() {
						if r := recover(); r != nil {
							buf := make([]byte, 16<<10)
							buf = buf[:runtime.Stack(buf, false)]
							res.err = fmt.Errorf("crashsim: panic at crash point %d: %v\n%s", points[idx], r, buf)
						}
					}()
					src.Seed(opts.Seed + int64(points[idx])*1_000_003)
					crashPoint(mod, opts, cache, captures[idx], inv, rec, rng, points[idx],
						log[points[idx]-1], ckptsUpTo[points[idx]], points[idx] == lastEvent, res)
				}()
			}
		}()
	}
	for i := range points {
		work <- i
	}
	close(work)
	wg.Wait()

	for i := range results {
		res := &results[i]
		if res.err != nil {
			return nil, res.err
		}
		rep.Schedules += res.schedules
		rep.PrunedSchedules += res.pruned
		rep.ImagesBuilt += res.built
		rep.DedupedSchedules += res.deduped
		rep.CacheHits += res.hits
		rep.CacheMisses += res.misses
		if res.failure != nil {
			rep.Failures = append(rep.Failures, *res.failure)
		}
	}
	if cow != nil {
		rep.PagesShared = cow.PagesShared.Load()
		rep.PagesCopied = cow.PagesCopied.Load()
	}
	sort.Slice(rep.Failures, func(i, j int) bool { return rep.Failures[i].Event < rep.Failures[j].Event })
	if opts.Log != nil {
		for _, f := range rep.Failures {
			fmt.Fprintf(opts.Log, "crashsim: FAIL %s\n", f)
		}
	}
	sp.Add("crash.points", int64(rep.Points))
	sp.Add("crash.points_pruned", int64(rep.PrunedPoints))
	sp.Add("crash.schedules", int64(rep.Schedules))
	sp.Add("crash.schedules_pruned", rep.PrunedSchedules)
	sp.Add("crash.schedules_deduped", int64(rep.DedupedSchedules))
	sp.Add("crash.images_built", int64(rep.ImagesBuilt))
	sp.Add("crash.cache.hits", rep.CacheHits)
	sp.Add("crash.cache.misses", rep.CacheMisses)
	sp.Add("crash.cow.pages_shared", rep.PagesShared)
	sp.Add("crash.cow.pages_copied", rep.PagesCopied)
	sp.Add("crash.failures", int64(len(rep.Failures)))
	return rep, nil
}

// pointResult accumulates one crash point's outcome.
type pointResult struct {
	schedules int
	pruned    int64
	built     int
	deduped   int
	hits      int64
	misses    int64
	failure   *Failure
	err       error
}

// crashPoint enumerates the feasible images of one captured crash state
// and recovers each distinct one. The first failing schedule fails the
// point (enumeration stops there). cache is nil iff dedup is off. rng
// must already be seeded with opts.Seed + k*1_000_003 (the per-point
// formula the deflake guard pins).
func crashPoint(mod *ir.Module, opts Options, cache *VerdictCache, cs *pmem.CrashState,
	inv, rec *entrySpec, rng *rand.Rand, k int, kind interp.PMEventKind, completed int, last bool, res *pointResult) {
	sizes := make([]int, len(cs.Lines))
	for i, pl := range cs.Lines {
		sizes[i] = len(pl.Stores)
	}
	schedules, feasible := enumerateCuts(sizes, opts.MaxImages, rng)
	res.pruned = feasible - int64(len(schedules))

	// The promise entry is anchored at durability points: parameterized
	// entries run at every checkpoint-event crash, no-parameter entries
	// only at the final one (they state whole-workload promises).
	entries := make([]*entrySpec, 0, 2)
	if inv != nil {
		entries = append(entries, inv)
	}
	if rec != nil && kind == interp.EvCheckpoint && (rec.arity == 1 || last) {
		entries = append(entries, rec)
	}

	builder := cs.NewBuilder()
	for _, cuts := range schedules {
		res.schedules++
		var hash uint64
		if cache != nil {
			hash = cs.HashCuts(cuts)
		}
		sought, booted := false, false
		for _, e := range entries {
			arg := -1
			var args []uint64
			if e.arity == 1 {
				arg = completed
				args = []uint64{uint64(completed)}
			}
			var key verdictKey
			var v cachedVerdict
			if cache != nil {
				key = verdictKey{image: hash, entry: e.name, arg: arg}
				var ok bool
				if v, ok = cache.lookup(key); ok {
					res.hits++
				} else {
					res.misses++
					v, res.err = bootRecovery(mod, opts, builder, cuts, &sought, e, args)
					if res.err != nil {
						return
					}
					res.built++
					booted = true
					cache.store(key, v)
				}
			} else {
				v, res.err = bootRecovery(mod, opts, builder, cuts, &sought, e, args)
				if res.err != nil {
					return
				}
				res.built++
				booted = true
			}
			if !v.pass {
				res.failure = &Failure{
					Event: k, Kind: kind, Completed: completed,
					Cuts: append([]int(nil), cuts...), Entry: e.name, Err: v.err, Ret: v.ret,
				}
				return
			}
		}
		if cache != nil && !booted && len(entries) > 0 {
			res.deduped++
		}
	}
}

// bootRecovery materializes the schedule's image (seeking the builder on
// first need, then snapshotting per entry so each boot gets a pristine
// image) and runs one recovery entry on a fresh machine. The returned
// error is engine-level; recovery rejections land in the verdict.
func bootRecovery(mod *ir.Module, opts Options, builder *pmem.ImageBuilder, cuts []int,
	sought *bool, e *entrySpec, args []uint64) (cachedVerdict, error) {
	if !*sought {
		builder.Seek(cuts)
		*sought = true
	}
	// NoTrack: the boot's verdict is the entry's return value; shadow
	// durability tracking would only burn memory per recovery store.
	m2, err := interp.New(mod, interp.Options{
		Memory: builder.Image(), ResumePM: true, NoTrack: true,
		StepLimit: opts.StepLimit, Deadline: opts.Deadline,
	})
	if err != nil {
		return cachedVerdict{}, err
	}
	ret, rerr := m2.Run(e.name, args...)
	return cachedVerdict{pass: rerr == nil && ret == 0, ret: ret, err: rerr}, nil
}

// resolveEntry looks up a recovery entry and checks its shape: defined,
// and taking either no parameter or a single integer. A missing entry is
// nil (skipped); "-" disables lookup.
func resolveEntry(mod *ir.Module, name string) (*entrySpec, error) {
	if name == "-" {
		return nil, nil
	}
	fn := mod.Func(name)
	if fn == nil || fn.IsDecl() {
		return nil, nil
	}
	if len(fn.Params) > 1 {
		return nil, fmt.Errorf("crashsim: recovery entry @%s takes %d parameters; want 0, or 1 (checkpoints completed)",
			name, len(fn.Params))
	}
	return &entrySpec{name: name, arity: len(fn.Params)}, nil
}

// selectPoints picks the crash points to simulate: every checkpoint
// event always, plus an even deterministic spread of the remaining
// events up to budget. Events where no entry could run are skipped
// outright (they count as pruned): without an invariant entry a
// non-checkpoint crash has nothing to validate, and an arity-0 promise
// entry only speaks about the final durability point. The selection
// depends only on the event log and the budget — never on the dedup
// mode — so -crash-points budgets pick identical schedules either way.
func selectPoints(log []interp.PMEventKind, budget int, invAll bool, rec *entrySpec) []int {
	lastCkpt := 0
	for i, k := range log {
		if k == interp.EvCheckpoint {
			lastCkpt = i + 1
		}
	}
	var ckpts, rest []int
	for i, k := range log {
		switch {
		case k == interp.EvCheckpoint:
			if !invAll && rec != nil && rec.arity == 0 && i+1 != lastCkpt {
				continue
			}
			ckpts = append(ckpts, i+1)
		case invAll:
			rest = append(rest, i+1)
		}
	}
	points := append([]int(nil), ckpts...)
	room := budget - len(points)
	if room >= len(rest) {
		points = append(points, rest...)
	} else if room > 0 {
		// Evenly spaced sample over the non-checkpoint events.
		for i := 0; i < room; i++ {
			points = append(points, rest[i*len(rest)/room])
		}
	}
	sort.Ints(points)
	return points
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
