package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"hippocrates/internal/alias"
	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/schedule"
	"hippocrates/internal/server"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// span is one benchmark span: a call into one layer, timed from outside
// the program. Spans of one request share Request; a layer call made only
// to measure a layer the pipeline does not call on its own (a probe) has
// no parent and is left out of the request's time.
type span struct {
	Name    string `json:"name"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Probe   bool   `json:"probe,omitempty"`
}

// tracer keeps a traced run's spans and work counts in memory. Every span
// runs under pprof labels naming its layer and workload, so a CPU profile
// of the traced run attributes samples to layers.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	req      int
	root     int
	counts   map[string]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now(), root: -1, counts: map[string]float64{}}
}

func (t *tracer) now() int64 { return time.Since(t.t0).Nanoseconds() }

func (t *tracer) record(name string, parent int, probe bool, fn func() error) (err error) {
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Request: t.req, Parent: parent, Probe: probe, StartNS: t.now()})
	pprof.Do(context.Background(), pprof.Labels("layer", name, "workload", t.workload), func(context.Context) {
		err = fn()
	})
	t.spans[i].EndNS = t.now()
	return err
}

// span times a pipeline step of the current request.
func (t *tracer) span(name string, fn func() error) error { return t.record(name, t.root, false, fn) }

// probe times a measurement-only call for the current request.
func (t *tracer) probe(name string, fn func() error) error { return t.record(name, -1, true, fn) }

func (t *tracer) add(name string, v float64) { t.counts[name] += v }

// duration is the length of span i in nanoseconds.
func (t *tracer) duration(i int) int64 { return t.spans[i].EndNS - t.spans[i].StartNS }

// request runs fn as request id under a root span.
func (t *tracer) request(id int, fn func() error) error {
	t.req = id
	return t.record("bench.request", -1, false, func() error {
		t.root = len(t.spans) - 1
		defer func() { t.root = -1 }()
		return fn()
	})
}

// selfTimes returns each span's duration minus the part of its interval
// its child spans cover.
func selfTimes(spans []span) []int64 {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		var ivs [][2]int64
		for _, c := range children[i] {
			lo, hi := max(spans[c].StartNS, s.StartNS), min(spans[c].EndNS, s.EndNS)
			if hi > lo {
				ivs = append(ivs, [2]int64{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		var covered, end int64
		for _, iv := range ivs {
			lo := max(iv[0], end)
			if iv[1] > lo {
				covered += iv[1] - lo
				end = iv[1]
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// composer replays requests as the pipeline runs them, one public layer
// call at a time, each under a span. It mirrors cli.RunModule; what it
// cannot replay from outside (the incremental crash-validation rounds,
// the daemon's artifact and verdict sharing) stays in bench.unattributed_ms.
type composer struct {
	t *tracer
	// analyzed backs the static.analyze calls and repaired the static
	// repairs: two summary stores owned by the benchmark, kept warm across
	// requests as the daemon keeps its own.
	analyzed, repaired *static.Store
}

func newComposer(t *tracer) *composer {
	return &composer{t: t, analyzed: static.NewStore(0), repaired: static.NewStore(0)}
}

// run replays one request.
func (c *composer) run(id int, it *item) error {
	q := it.req
	if err := q.Validate(); err != nil {
		return err
	}
	return c.t.request(id, func() error {
		mod, err := c.front(&q)
		if err != nil {
			return err
		}
		resp := &cli.Response{Mode: q.Mode, Program: q.Program, Entry: q.Entry, Static: q.Static,
			Reports: []string{}, Audit: []*obs.AuditEntry{}, Lints: []cli.LintDoc{}}
		switch {
		case q.Static:
			err = c.static(&q, mod, resp)
		case q.Threads:
			err = c.threads(&q, mod, resp)
		default:
			err = c.dynamic(&q, mod, resp)
		}
		if err != nil {
			return err
		}
		return c.t.span("cli.encode", func() error {
			body, err := resp.EncodeJSON()
			c.t.add("cli.bytes", float64(len(body)))
			return err
		})
	})
}

func (c *composer) front(q *cli.Request) (mod *ir.Module, err error) {
	if q.IsIR() {
		err = c.t.span("ir.parse", func() (err error) {
			mod, err = ir.ParseModule(q.Source)
			return err
		})
		return mod, err
	}
	var f *lang.File
	if err = c.t.span("lang.parse", func() (err error) {
		f, err = lang.Parse(q.Program, q.Source)
		return err
	}); err != nil {
		return nil, err
	}
	err = c.t.span("lang.lower", func() (err error) {
		mod, err = lang.Lower(f)
		return err
	})
	return mod, err
}

// coreOptions maps a request onto the pipeline options as cli does.
func coreOptions(q *cli.Request) core.Options {
	o := core.Options{DisableHoisting: q.IntraOnly, StepLimit: q.StepLimit, MaxSchedules: q.MaxSchedules, FlushKind: ir.CLWB}
	switch q.Flush {
	case "clflushopt":
		o.FlushKind = ir.CLFLUSHOPT
	case "clflush":
		o.FlushKind = ir.CLFLUSH
	}
	if q.Marks == "trace-aa" {
		o.Marks = core.TraceAA
	}
	return o
}

func crashOptions(q *cli.Request) crashsim.Options {
	return crashsim.Options{Entry: q.Entry, Args: q.Args, Invariant: q.Invariant, Recovery: q.Recovery,
		MaxPoints: q.CrashPoints, MaxImages: q.CrashImages, StepLimit: q.StepLimit}
}

// execProbe times a run of the entry without durability tracking: the
// interpreter alone.
func (c *composer) execProbe(q *cli.Request, mod *ir.Module) (int, error) {
	i := len(c.t.spans)
	err := c.t.probe("interp.exec", func() error {
		m, err := interp.New(mod, interp.Options{NoTrack: true, StepLimit: q.StepLimit})
		if err != nil {
			return err
		}
		_, err = m.Run(q.Entry, q.Args...)
		c.t.add("interp.steps", float64(m.Steps()))
		return err
	})
	return i, err
}

// traceRun runs the entry with tracking and a trace, as the pipeline's
// trace step does.
func traceRun(q *cli.Request, mod *ir.Module) (*trace.Trace, error) {
	tr := &trace.Trace{Program: mod.Name}
	m, err := interp.New(mod, interp.Options{Trace: tr, StepLimit: q.StepLimit})
	if err != nil {
		return nil, err
	}
	_, err = m.Run(q.Entry, q.Args...)
	return tr, err
}

func (c *composer) detect(tr *trace.Trace) (res *pmcheck.Result) {
	c.t.span("pmcheck.detect", func() error {
		res = pmcheck.Check(tr)
		return nil
	})
	c.t.add("pmcheck.reports", float64(len(res.Reports)))
	c.t.add("detect.events", float64(len(tr.Events)))
	return res
}

func (c *composer) crash(rep *crashsim.Report) {
	c.t.add("crashsim.schedules", float64(rep.Schedules))
	c.t.add("crashsim.images_built", float64(rep.ImagesBuilt))
	c.t.add("crashsim.deduped", float64(rep.DedupedSchedules))
	c.t.add("crashsim.pages_copied", float64(rep.PagesCopied))
}

// aliasProbe times the whole-module alias analysis, which the pipeline
// runs inside core.Repair and the static analysis.
func (c *composer) aliasProbe(mod *ir.Module) {
	c.t.probe("alias.analyze", func() error {
		alias.Analyze(mod)
		return nil
	})
}

func (c *composer) print(mod *ir.Module) (text string) {
	c.t.span("ir.print", func() error {
		text = ir.Print(mod)
		return nil
	})
	c.t.add("ir.bytes", float64(len(text)))
	return text
}

func (c *composer) dynamic(q *cli.Request, mod *ir.Module, resp *cli.Response) error {
	exec, err := c.execProbe(q, mod)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	traced := len(c.t.spans)
	if err := c.t.span("interp.trace", func() (err error) {
		tr, err = traceRun(q, mod)
		return err
	}); err != nil {
		return err
	}
	c.t.add("trace.events", float64(len(tr.Events)))
	c.t.add("pmem.track_ns", float64(c.t.duration(traced)-c.t.duration(exec)))
	before := c.detect(tr)
	fillReports(resp, before.Reports, before.UniqueSites())
	resp.Fixed = before.Clean()
	if q.Mode == cli.ModeRepair {
		if err := c.repair(q, mod, tr, before, resp); err != nil {
			return err
		}
	}
	if q.Optimize && (q.Mode == cli.ModeCheck || resp.Fixed) {
		var res *optimize.Result
		if err := c.t.span("optimize.optimize", func() (err error) {
			res, err = optimize.Optimize(mod, optimize.Options{Entry: q.Entry, Args: q.Args,
				MaxPoints: q.CrashPoints, MaxImages: q.CrashImages, StepLimit: q.StepLimit})
			return err
		}); err != nil {
			return err
		}
		c.t.add("optimize.candidates", float64(res.Candidates))
		c.t.add("optimize.applied", float64(res.Applied()))
		resp.Optimize = res
		if res.Applied() > 0 {
			resp.OptimizedIR = c.print(mod)
		}
	}
	return nil
}

func (c *composer) repair(q *cli.Request, mod *ir.Module, tr *trace.Trace, before *pmcheck.Result, resp *cli.Response) error {
	opts := coreOptions(q)
	c.aliasProbe(mod)
	after := before
	if !before.Clean() {
		var fix *core.Result
		if err := c.t.span("core.repair", func() (err error) {
			fix, err = core.Repair(mod, tr, before, opts)
			return err
		}); err != nil {
			return err
		}
		c.fixes(resp, fix)
		if err := c.t.span("core.revalidate", func() error {
			tr2, err := traceRun(q, mod)
			if err != nil {
				return err
			}
			after = pmcheck.Check(tr2)
			return nil
		}); err != nil {
			return err
		}
	}
	resp.BugsAfter = len(after.Reports)
	resp.Fixed = after.Clean()
	if q.CrashCheck {
		var rep *crashsim.Report
		if err := c.t.span("crashsim.validate", func() (err error) {
			rep, err = crashsim.Validate(mod, crashOptions(q))
			return err
		}); err != nil {
			return err
		}
		c.crash(rep)
		resp.Crash = rep.Doc()
		resp.Fixed = resp.Fixed && rep.Passed()
	}
	if resp.Fixes != nil {
		resp.RepairedIR = c.print(mod)
	}
	return nil
}

func (c *composer) static(q *cli.Request, mod *ir.Module, resp *cli.Response) error {
	c.aliasProbe(mod)
	// A static check is this analysis; a static repair runs its own, so
	// there the analysis is measured as a probe.
	record := c.t.span
	if q.Mode == cli.ModeRepair {
		record = c.t.probe
	}
	var res *static.Result
	before := c.analyzed.Stats()
	if err := record("static.analyze", func() (err error) {
		res, err = static.AnalyzeWithStore(mod, q.Entry, c.analyzed)
		return err
	}); err != nil {
		return err
	}
	after := c.analyzed.Stats()
	c.t.add("static.hits", float64(after.SummaryHits-before.SummaryHits))
	c.t.add("static.misses", float64(after.SummaryMisses-before.SummaryMisses))
	if q.Mode != cli.ModeRepair {
		fillReports(resp, res.PMCheckReports(), res.UniqueSites())
		resp.Fixed = res.Clean()
		return nil
	}
	opts := coreOptions(q)
	opts.SummaryStore = c.repaired
	var sr *core.StaticPipelineResult
	if err := c.t.span("core.static_repair", func() (err error) {
		sr, err = core.StaticRepair(mod, q.Entry, opts)
		return err
	}); err != nil {
		return err
	}
	fillReports(resp, sr.Before.PMCheckReports(), sr.Before.UniqueSites())
	resp.BugsAfter = len(sr.After.Reports)
	resp.Fixed = sr.After.Clean()
	if sr.Fix != nil {
		c.fixes(resp, sr.Fix)
		resp.RepairedIR = c.print(mod)
	}
	return nil
}

func (c *composer) threads(q *cli.Request, mod *ir.Module, resp *cli.Response) error {
	if _, err := c.execProbe(q, mod); err != nil {
		return err
	}
	opts := coreOptions(q)
	// A threads check is this exploration; a threads repair explores on
	// its own, so there the exploration is measured as a probe.
	record := c.t.span
	if q.Mode == cli.ModeRepair {
		record = c.t.probe
	}
	var ex *schedule.Result
	if err := record("schedule.explore", func() (err error) {
		ex, err = core.ExploreModule(mod, q.Entry, opts, q.Args...)
		return err
	}); err != nil {
		return err
	}
	c.t.add("schedule.explored", float64(ex.Explored))
	c.t.add("schedule.pruned", float64(ex.Pruned))
	c.t.add("schedule.explorations", 1)
	if ex.Truncated {
		c.t.add("schedule.truncated", 1)
	}
	resp.Schedules = &cli.ScheduleDoc{Truncated: ex.Truncated,
		Stats: cli.ScheduleStatsDoc{SchedulesExplored: ex.Explored, SchedulesPruned: ex.Pruned}}
	if q.Mode != cli.ModeRepair {
		var all []*pmcheck.Report
		for _, run := range ex.Runs {
			all = append(all, run.Check.Reports...)
		}
		union := pmcheck.DedupeByClass(all)
		fillReports(resp, union, len(union))
		resp.Fixed = ex.AllClean()
		return nil
	}
	var res *core.MTResult
	if err := c.t.span("core.repair_mt", func() (err error) {
		res, err = core.RunAndRepairMT(mod, q.Entry, opts, q.Args...)
		return err
	}); err != nil {
		return err
	}
	fillReports(resp, res.Before.Reports, res.Before.UniqueSites())
	resp.BugsAfter = len(res.After.Reports)
	resp.Fixed = res.After.Clean()
	if res.Fix != nil {
		c.fixes(resp, res.Fix)
	}
	if q.CrashCheck {
		// One sweep per explored interleaving, sharing one verdict cache.
		if err := c.t.span("crashsim.validate", func() error {
			copts := crashOptions(q)
			copts.Cache = crashsim.NewVerdictCache()
			for _, run := range res.FinalExploration().Runs {
				copts.Schedule = run.Choices
				rep, err := crashsim.Validate(mod, copts)
				if err != nil {
					return err
				}
				c.crash(rep)
				resp.CrashBySchedule = append(resp.CrashBySchedule, cli.ScheduleCrashDoc{Schedule: run.ID, Report: rep.Doc()})
				resp.Fixed = resp.Fixed && rep.Passed()
			}
			return nil
		}); err != nil {
			return err
		}
	}
	if res.Fix != nil {
		resp.RepairedIR = c.print(mod)
	}
	return nil
}

func fillReports(resp *cli.Response, reports []*pmcheck.Report, sites int) {
	resp.BugsBefore = len(reports)
	resp.SitesBefore = sites
	for _, r := range reports {
		resp.Reports = append(resp.Reports, r.String())
	}
}

func (c *composer) fixes(resp *cli.Response, fix *core.Result) {
	c.t.add("core.fixes", float64(len(fix.Fixes)))
	resp.InstrsBefore, resp.InstrsAfter = fix.InstrsBefore, fix.InstrsAfter
	resp.Clones, resp.Reduced, resp.Marks = fix.ClonesCreated, fix.ReducedFixes, fix.MarksName
	resp.Fixes = []cli.FixDoc{}
	for _, f := range fix.Fixes {
		resp.Fixes = append(resp.Fixes, cli.FixDoc{
			Kind: f.Kind.String(), ReportSite: f.Report.Store.Site().String(), ReportClass: f.Report.Class().String(),
			AppliedAt: f.AppliedAt.String(), HoistDepth: f.HoistDepth, Score: f.Score, Clones: f.Clones,
		})
	}
}

// Layers is a workload's traced-run result.
type Layers struct {
	Workload string
	// Requests is how many requests the traced run replayed.
	Requests int
	Values   []Value
	spans    []span
}

// WriteSpans writes the traced run's spans as JSON.
func (l *Layers) WriteSpans(path string) error {
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Requests int    `json:"requests"`
		Spans    []span `json:"spans"`
	}{l.Workload, l.Requests, l.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// serverStats are the daemon-side layer metrics of the in-process replay.
type serverStats struct {
	inprocP50MS, queueWaitP50MS                   float64
	responseHit, artifactHit, verdictHit, sumHits float64
}

// RunTraced rebuilds w's inputs and replays a prefix of its timed stream
// with every layer call under a span (and, for a daemon workload, first
// through a fresh daemon's queue without HTTP). e2e is the untraced result
// the layer times are set against. The replay runs for d, in whole
// periods.
func RunTraced(w *Workload, o Options, e2e *E2E, d time.Duration) (*Layers, error) {
	st, err := w.build(o.Seed, o.Quick)
	if err != nil {
		return nil, fmt.Errorf("%s: inputs: %w", w.Name, err)
	}
	count := 0
	if o.Quick {
		count = st.period
	}
	t := newTracer(w.Name)
	c := newComposer(t)
	// The composer's summary stores see the warm-up's static requests, as
	// the daemon's store does; their spans are dropped.
	for i := 0; i < st.warmup; i++ {
		it, err := st.at(i)
		if err != nil {
			return nil, err
		}
		if it.req.Static {
			if err := c.run(-1, it); err != nil {
				return nil, fmt.Errorf("%s: warm-up %s: %w", w.Name, it.key, err)
			}
		}
	}
	t.spans, t.counts = nil, map[string]float64{}

	compose := func(i int) error {
		it, err := st.at(i)
		if err != nil {
			return err
		}
		if err := c.run(i, it); err != nil {
			return fmt.Errorf("%s: traced %s: %w", w.Name, it.key, err)
		}
		return nil
	}
	n := 0
	var srv *serverStats
	if w.Daemon {
		var replay []sample
		if replay, srv, err = inproc(w, st, count, d/2); err != nil {
			return nil, err
		}
		for _, s := range replay {
			if s.hit {
				continue // answered from the response cache: no layer ran
			}
			if err := compose(s.index); err != nil {
				return nil, err
			}
		}
		n = len(replay)
	} else {
		deadline := time.Now().Add(d)
		for ; ; n++ {
			if (count > 0 && n >= count) || (count == 0 && n%st.period == 0 && !time.Now().Before(deadline)) {
				break
			}
			if err := compose(st.warmup + n); err != nil {
				return nil, err
			}
		}
	}
	o.logf("%s: traced replay of %d request(s)", w.Name, n)
	l := &Layers{Workload: w.Name, Requests: n, spans: t.spans}
	l.Values = layerValues(t, n, e2e, srv)
	return l, nil
}

// failed returns the phase's first failure.
func (p *phase) failed() error {
	for _, s := range p.samples {
		if s.err != nil {
			return s.err
		}
	}
	return nil
}

// inproc replays st's warm-up and then its timed stream for d (whole
// periods) into a fresh daemon through Submit, without HTTP, and reads the
// daemon's cache and queue metrics over the timed part.
func inproc(w *Workload, st *stream, count int, d time.Duration) ([]sample, *serverStats, error) {
	srv := server.New(server.Config{})
	sub := submitter{srv}
	defer sub.close()
	v := newVerifier()
	warm := drive(st, sub, v, w.Clients, 0, st.warmup, 0)
	if err := warm.failed(); err != nil {
		return nil, nil, err
	}
	m0 := srv.Metrics()
	ph := drive(st, sub, v, w.Clients, st.warmup, count, d)
	if err := ph.failed(); err != nil {
		return nil, nil, err
	}
	m1 := srv.Metrics()
	ratio := func(h1, h0, m1, m0 int64) float64 {
		if n := h1 - h0 + m1 - m0; n > 0 {
			return float64(h1-h0) / float64(n)
		}
		return 0
	}
	c0, c1 := m0.Cache, m1.Cache
	out := &serverStats{
		responseHit: ratio(c1.ResponseHits, c0.ResponseHits, c1.ResponseMisses, c0.ResponseMisses),
		artifactHit: ratio(c1.ArtifactHits, c0.ArtifactHits, c1.ArtifactMisses, c0.ArtifactMisses),
		verdictHit:  ratio(c1.VerdictHits, c0.VerdictHits, c1.VerdictMisses, c0.VerdictMisses),
		sumHits:     ratio(c1.SummaryHits, c0.SummaryHits, c1.SummaryMisses, c0.SummaryMisses),
	}
	for _, win := range m1.Windows {
		if win.Phase == "queue_wait" && win.Window == "1m" {
			out.queueWaitP50MS = float64(win.P50NS) / 1e6
		}
	}
	lat := make([]float64, len(ph.samples))
	for i, s := range ph.samples {
		lat[i] = s.ms
	}
	sort.Float64s(lat)
	out.inprocP50MS = quantile(lat, 0.5)
	return ph.samples, out, nil
}

// layerValues turns a traced run's spans and counts into the per-layer
// metrics: per-request means of span self time and of work counts, and
// ratios over the whole run.
func layerValues(t *tracer, n int, e2e *E2E, srv *serverStats) []Value {
	self := map[string]float64{}
	var attributed, roots float64
	for i, st := range selfTimes(t.spans) {
		s := t.spans[i]
		self[s.Name] += float64(st)
		switch {
		case s.Name == "bench.request":
			roots += float64(s.EndNS - s.StartNS)
		case !s.Probe:
			attributed += float64(st)
		}
	}
	den := float64(max(n, 1))
	ms := func(name string) float64 { return self[name] / den / 1e6 }
	per := func(name string) float64 { return t.counts[name] / den }
	ratio := func(num, of float64) float64 {
		if of == 0 {
			return 0
		}
		return num / of
	}
	c := t.counts
	e2eMean := e2e.meanMS()
	lat := append([]float64(nil), e2e.LatMS...)
	sort.Float64s(lat)
	vals := []Value{
		{Name: "lang.parse_ms", Value: ms("lang.parse")},
		{Name: "lang.lower_ms", Value: ms("lang.lower")},
		{Name: "ir.parse_ms", Value: ms("ir.parse")},
		{Name: "ir.print_ms", Value: ms("ir.print")},
		{Name: "ir.kbytes", Value: per("ir.bytes") / 1000},
		{Name: "interp.exec_ms", Value: ms("interp.exec")},
		{Name: "interp.steps", Value: per("interp.steps")},
		{Name: "pmem.track_ms", Value: per("pmem.track_ns") / 1e6},
		{Name: "trace.events", Value: per("trace.events")},
		{Name: "pmcheck.detect_ms", Value: ms("pmcheck.detect")},
		{Name: "pmcheck.ns_per_event", Value: ratio(self["pmcheck.detect"], c["detect.events"])},
		{Name: "pmcheck.reports", Value: per("pmcheck.reports")},
		{Name: "alias.analyze_ms", Value: ms("alias.analyze")},
		{Name: "core.repair_ms", Value: ms("core.repair")},
		{Name: "core.fixes", Value: per("core.fixes")},
		{Name: "core.revalidate_ms", Value: ms("core.revalidate")},
		{Name: "core.static_repair_ms", Value: ms("core.static_repair")},
		{Name: "core.repair_mt_ms", Value: ms("core.repair_mt")},
		{Name: "static.analyze_ms", Value: ms("static.analyze")},
		{Name: "static.summary_hit_ratio", Value: ratio(c["static.hits"], c["static.hits"]+c["static.misses"])},
		{Name: "crashsim.validate_ms", Value: ms("crashsim.validate")},
		{Name: "crashsim.schedules", Value: per("crashsim.schedules")},
		{Name: "crashsim.images_built", Value: per("crashsim.images_built")},
		{Name: "crashsim.dedup_ratio", Value: ratio(c["crashsim.deduped"], c["crashsim.schedules"])},
		{Name: "crashsim.pages_copied", Value: per("crashsim.pages_copied")},
		{Name: "crashsim.rounds", Value: ratio(float64(e2e.Rounds), float64(e2e.Completed))},
		{Name: "optimize.optimize_ms", Value: ms("optimize.optimize")},
		{Name: "optimize.candidates", Value: per("optimize.candidates")},
		{Name: "optimize.applied_ratio", Value: ratio(c["optimize.applied"], c["optimize.candidates"])},
		{Name: "schedule.explore_ms", Value: ms("schedule.explore")},
		{Name: "schedule.explored", Value: per("schedule.explored")},
		{Name: "schedule.pruned", Value: per("schedule.pruned")},
		{Name: "schedule.truncated_ratio", Value: ratio(c["schedule.truncated"], c["schedule.explorations"])},
		{Name: "cli.encode_ms", Value: ms("cli.encode")},
		{Name: "cli.response_kbytes", Value: per("cli.bytes") / 1000},
	}
	if srv == nil {
		srv = &serverStats{}
	}
	overhead := 0.0
	if srv.inprocP50MS > 0 {
		overhead = quantile(lat, 0.5) - srv.inprocP50MS
	}
	vals = append(vals,
		Value{Name: "server.inproc_ms", Value: srv.inprocP50MS},
		Value{Name: "server.http_overhead_ms", Value: overhead},
		Value{Name: "server.response_hit_ratio", Value: srv.responseHit},
		Value{Name: "server.artifact_hit_ratio", Value: srv.artifactHit},
		Value{Name: "server.verdict_hit_ratio", Value: srv.verdictHit},
		Value{Name: "server.summary_hit_ratio", Value: srv.sumHits},
		Value{Name: "server.queue_wait_p50_ms", Value: srv.queueWaitP50MS},
		Value{Name: "bench.unattributed_ms", Value: e2eMean - attributed/den/1e6},
		Value{Name: "bench.trace_overhead_pct", Value: 100 * ratio(roots/den/1e6-e2eMean, e2eMean)},
	)
	for i := range vals {
		vals[i].N = n
	}
	return withUnits(vals)
}
