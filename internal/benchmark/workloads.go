package benchmark

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/progen"
	"hippocrates/internal/server/loadgen"
)

// Workload is one seeded request stream and the path that serves it.
type Workload struct {
	Name string
	// Why says what the workload stresses that the others do not.
	Why string
	// Daemon serves the stream from an in-process hippocratesd over
	// loopback HTTP; otherwise each request is a cli.Run call.
	Daemon bool
	// Clients is the closed loop's client (or connection) count.
	Clients int
	// Requests is the timed request count of a full run, sized to about
	// 20 s on a 2-CPU host.
	Requests int
	build    func(seed int64, quick bool) (*stream, error)
}

// Workloads returns the benchmark's workloads in run order.
func Workloads() []*Workload {
	return []*Workload{
		{Name: "crash-corpus", Clients: 1, Requests: 1305, build: crashCorpus,
			Why: "CLI repair + crash validation of the 15 buggy corpus targets: crashsim dominates; no schedule exploration or static analysis runs"},
		{Name: "long-trace", Clients: 1, Requests: 108, build: longTrace,
			Why: "CLI check/repair/optimize of redis with seeded command drivers: durability tracking and detection on long traces dominate; no crashsim"},
		{Name: "mt-explore", Clients: 1, Requests: 1092, build: mtExplore,
			Why: "CLI threads repair/check of concurrent programs, the only workload running schedule exploration; skips the 148 of 200 progen seeds with atomic writes, where all 97 repair failures lie"},
		{Name: "static-edits", Daemon: true, Clients: 1, Requests: 240, build: staticEdits,
			Why: "daemon static repair of a large edited IR module per request: parse, alias, warm summaries, big responses; no execution, every cache missed"},
		{Name: "service-mix", Daemon: true, Clients: 2, Requests: 50000, build: serviceMix,
			Why: "daemon over a Zipf key space larger than its caches, 2 connections: queueing, response and artifact caches, HTTP and JSON encoding"},
	}
}

// ByName returns the named workload, or nil.
func ByName(name string) *Workload {
	for _, w := range Workloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// item is one request of a stream.
type item struct {
	// key names the request's content: two items with the same key must
	// get the same response.
	key   string
	req   cli.Request
	check func(*answer) error

	once    sync.Once
	payload []byte
	perr    error
}

// body is the request's JSON encoding for the daemon path, built once.
func (it *item) body() ([]byte, error) {
	it.once.Do(func() { it.payload, it.perr = json.Marshal(&it.req) })
	return it.payload, it.perr
}

// stream is an endless, seeded, stationary request sequence. Items
// [0, warmup) are the warm-up; a timed phase starts at warmup and, when
// bounded by time, stops only at a whole number of periods after it, so
// every run sees the same mix of requests.
type stream struct {
	at     func(i int) (*item, error)
	warmup int
	period int
}

// cyclic streams keys in passes, each a seeded shuffle of all keys. The
// first pass is the warm-up, so every key is checked before timing.
func cyclic(seed int64, keys []*item) *stream {
	var mu sync.Mutex
	perms := map[int][]int{}
	n := len(keys)
	return &stream{warmup: n, period: n, at: func(i int) (*item, error) {
		pass := i / n
		mu.Lock()
		perm := perms[pass]
		if perm == nil {
			perm = rand.New(rand.NewSource(seed*1_000_003 + int64(pass))).Perm(n)
			perms[pass] = perm
		}
		mu.Unlock()
		return keys[perm[i%n]], nil
	}}
}

// The corpus replay's crash-validation budgets, as loadgen uses them.
const (
	crashPoints = loadgen.CrashPoints
	crashImages = loadgen.CrashImages
	stepLimit   = loadgen.StepLimit
)

// repairChecks are the known answers of a dynamic repair of corpus
// program p: the recorded bugs found, all fixed, and the repaired program
// still returning the recorded value.
func repairChecks(p *corpus.Program) func(*answer) error {
	return all(wantSites(len(p.Bugs)), wantRepaired, func(a *answer) error {
		return wantReturn(a.RepairedIR, p.Entry, nil, p.WantRet)
	})
}

func crashCorpus(seed int64, quick bool) (*stream, error) {
	reqs := loadgen.CorpusRequests()
	if quick {
		reqs = reqs[:2]
	}
	keys := make([]*item, len(reqs))
	for i, q := range reqs {
		p := corpus.ByName(strings.TrimSuffix(q.Program, ".pmc"))
		if p == nil {
			return nil, fmt.Errorf("no corpus program for %s", q.Program)
		}
		keys[i] = &item{key: "repair+crash:" + p.Name, req: *q, check: repairChecks(p)}
	}
	return cyclic(seed, keys), nil
}

// driver is the benchmark's own redis command driver: a seeded LCG picks
// keys and arguments, the opcode walks all eight commands in turn (so
// every seed issues the same command mix), and a durability point
// follows every command, as the redis trace driver does.
const driver = `
int bench_drive(int seed, int n) {
	int s = seed;
	int acc = 0;
	for (int i = 0; i < n; i++) {
		s = (s * 1103515245 + 12345) % 2147483648;
		int op = 1 + i % 8;
		int key = (s / 256) % 48;
		int arg = s % 1000;
		if (op == 4) { arg = arg % 16; }
		int r = cmd_exec(op, key, arg);
		acc = (acc * 31 + r + 7) % 1000000007;
		pm_checkpoint();
	}
	return acc;
}
`

// driveReturn runs the driver on p's build without tracking.
func driveReturn(name, src string, args []uint64) (uint64, error) {
	m, err := lang.Compile(name, src)
	if err != nil {
		return 0, err
	}
	return execute(m, "bench_drive", args)
}

func longTrace(seed int64, quick bool) (*stream, error) {
	lens := []uint64{50, 100, 200}
	if quick {
		lens = []uint64{4}
	}
	ff, pm := corpus.ByName("redis-flushfree"), corpus.ByName("redis-pmem")
	ffSrc, pmSrc := ff.Source()+driver, pm.Source()+driver
	dseed := uint64(seed) & 0x7fffffff
	var keys []*item
	for _, n := range lens {
		args := []uint64{dseed, n}
		// The flush-free build must compute what the hand-persisted build
		// computes; that value is what every returned module must keep.
		want, err := driveReturn("redis-pmem.pmc", pmSrc, args)
		if err != nil {
			return nil, fmt.Errorf("redis-pmem driver: %w", err)
		}
		got, err := driveReturn("redis-flushfree.pmc", ffSrc, args)
		if err != nil {
			return nil, fmt.Errorf("redis-flushfree driver: %w", err)
		}
		if got != want {
			return nil, fmt.Errorf("redis driver(%d, %d): flush-free build returns %d, hand-persisted %d", dseed, n, got, want)
		}
		base := cli.Request{Entry: "bench_drive", Args: args}
		ffCheck, ffRepair, pmOpt := base, base, base
		ffCheck.Program, ffCheck.Source, ffCheck.Mode = "redis-flushfree.pmc", ffSrc, cli.ModeCheck
		ffRepair.Program, ffRepair.Source, ffRepair.Mode = "redis-flushfree.pmc", ffSrc, cli.ModeRepair
		pmOpt.Program, pmOpt.Source, pmOpt.Mode, pmOpt.Optimize = "redis-pmem.pmc", pmSrc, cli.ModeCheck, true
		tag := fmt.Sprintf("redis:%d:%d", dseed, n)
		keys = append(keys,
			&item{key: "check:flushfree-" + tag, req: ffCheck, check: wantBuggy},
			&item{key: "repair:flushfree-" + tag, req: ffRepair, check: all(wantRepaired, func(a *answer) error {
				return wantReturn(a.RepairedIR, "bench_drive", args, want)
			})},
			&item{key: "check+optimize:pmem-" + tag, req: pmOpt, check: all(wantClean, func(a *answer) error {
				return wantReturn(a.OptimizedIR, "bench_drive", args, want)
			})},
		)
	}
	return cyclic(seed, keys), nil
}

// wantBuggy checks a check of a buggy build reports bugs (a flush-free
// build's PM writes cannot all be durable; the corpus records the bugs of
// the others).
func wantBuggy(a *answer) error {
	if a.BugsBefore == 0 || a.Fixed {
		return fmt.Errorf("buggy build reported clean (bugs_before %d)", a.BugsBefore)
	}
	return nil
}

// wantClean checks a hand-persisted build is reported clean.
func wantClean(a *answer) error {
	if a.BugsBefore != 0 || !a.Fixed {
		return fmt.Errorf("hand-persisted build reported %d bug(s)", a.BugsBefore)
	}
	return nil
}

// mtItems are the concurrent corpus targets in threads repair with crash
// validation and in threads check.
func mtItems(quick bool) []*item {
	var out []*item
	for _, p := range corpus.MTPrograms() {
		p := p.Program
		repair := cli.Request{Program: p.Name + ".pmc", Source: p.Source(), Mode: cli.ModeRepair, Entry: p.Entry,
			Threads: true, CrashCheck: true, CrashPoints: crashPoints, CrashImages: crashImages, StepLimit: stepLimit}
		check := cli.Request{Program: p.Name + ".pmc", Source: p.Source(), Mode: cli.ModeCheck, Entry: p.Entry, Threads: true}
		out = append(out,
			&item{key: "threads-repair+crash:" + p.Name, req: repair, check: repairChecks(p)},
			&item{key: "threads-check:" + p.Name, req: check, check: all(wantSites(len(p.Bugs)), wantBuggy)},
		)
		if quick {
			return out[1:]
		}
	}
	return out
}

// threadedPrograms draws n seeded progen.ThreadedConfig programs, keeping
// only those without atomic stores or read-modify-writes: the threads
// repair pipeline rejects an atomic store site as a repair target (a
// typed error on about half of all seeds), and the benchmark runs only
// requests that succeed.
func threadedPrograms(rng *rand.Rand, n int) []*item {
	out := make([]*item, 0, n)
	for len(out) < n {
		s := rng.Int63n(1 << 31)
		m := progen.Generate(s, progen.ThreadedConfig(s))
		if hasAtomicWrite(m) {
			continue
		}
		out = append(out, &item{
			key: fmt.Sprintf("threads-repair:progen-t%d", s),
			req: cli.Request{Program: fmt.Sprintf("progen-t%d.pmir", s), Source: ir.Print(m), Mode: cli.ModeRepair, Threads: true},
			check: func(a *answer) error {
				if a.Schedules == nil {
					return fmt.Errorf("threads repair without a schedule summary")
				}
				return nil
			},
		})
	}
	return out
}

func hasAtomicWrite(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpAtomicStore, ir.OpAtomicRMW, ir.OpAtomicCAS:
					return true
				}
			}
		}
	}
	return false
}

func mtExplore(seed int64, quick bool) (*stream, error) {
	n := 72
	if quick {
		n = 1
	}
	keys := append(mtItems(quick), threadedPrograms(rand.New(rand.NewSource(seed)), n)...)
	return cyclic(seed, keys), nil
}

// The static-edits editor loop: every request is the layered module with
// one seeded edit (value : dead-local : add-persist = 4:1:1 in every block
// of six requests) on a seeded leaf, plus a constant bumped by the request
// index so no two requests share a source.
var editMix = []progen.EditKind{
	progen.EditValue, progen.EditValue, progen.EditValue, progen.EditValue,
	progen.EditDeadLocal, progen.EditAddPersist,
}

func staticEdits(seed int64, quick bool) (*stream, error) {
	cfg := progen.DefaultLayeredConfig()
	if quick {
		cfg = progen.LayeredConfig{Leaves: 6, Mids: 2, LeafOps: 6, PMCells: 2}
	}
	ed, err := newEditor(cfg)
	if err != nil {
		return nil, err
	}
	period := len(editMix)
	return &stream{warmup: period, period: period, at: func(i int) (*item, error) {
		rng := rand.New(rand.NewSource(seed*1_000_003 + int64(i)))
		kind := editMix[rand.New(rand.NewSource(seed*7_919 + int64(i/period))).Perm(period)[i%period]]
		leaf := fmt.Sprintf("leaf%d", rng.Intn(cfg.Leaves))
		src, err := ed.source(progen.EditStep{Kind: kind, Target: leaf}, int64(i)+1)
		if err != nil {
			return nil, err
		}
		m, err := ir.ParseModule(src)
		if err != nil {
			return nil, fmt.Errorf("edited layered module: %w", err)
		}
		kept, err := checksumKept(m)
		if err != nil {
			return nil, err
		}
		return &item{
			key:   fmt.Sprintf("static-repair:layered:%d:%s@%s", i, kind, leaf),
			req:   cli.Request{Program: "layered.pmir", Source: src, Mode: cli.ModeRepair, Static: true},
			check: all(wantRepaired, kept),
		}, nil
	}}, nil
}

// checksumKept checks the repaired module returns what m returns: progen
// programs return a checksum over every PM cell, so a repair that changed
// a stored value shows.
func checksumKept(m *ir.Module) (func(*answer) error, error) {
	want, err := execute(m, "main", nil)
	if err != nil {
		return nil, fmt.Errorf("run %s: %w", m.Name, err)
	}
	return func(a *answer) error { return wantReturn(a.RepairedIR, "main", nil, want) }, nil
}

// editor produces edited sources of one layered module cheaply: the
// module is printed once, and each request reprints only the edited
// function (a clone, removed again) and splices it in.
type editor struct {
	mu       sync.Mutex
	mod      *ir.Module
	text     string
	sections map[string][2]int
}

func newEditor(cfg progen.LayeredConfig) (*editor, error) {
	m := progen.Layered(cfg)
	e := &editor{mod: m, text: ir.Print(m), sections: map[string][2]int{}}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		start := strings.Index(e.text, "\nfunc @"+f.Name+"(")
		if start < 0 {
			return nil, fmt.Errorf("layered module: no text for @%s", f.Name)
		}
		end := start + 1 + strings.Index(e.text[start+1:], "\n}\n") + 3
		if got := funcText(f, f.Name); got != e.text[start:end] {
			return nil, fmt.Errorf("layered module: @%s reprints differently", f.Name)
		}
		e.sections[f.Name] = [2]int{start, end}
	}
	return e, nil
}

const editTmp = "bench_edit"

// source returns the module text with step applied to a copy of its
// target and the target's first constant raised by bump.
func (e *editor) source(step progen.EditStep, bump int64) (string, error) {
	sec, ok := e.sections[step.Target]
	if !ok {
		return "", fmt.Errorf("layered module has no @%s", step.Target)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fn := ir.CloneFunc(e.mod.Func(step.Target), editTmp)
	defer e.mod.RemoveFunc(editTmp)
	if err := progen.ApplyEdit(e.mod, progen.EditStep{Kind: step.Kind, Target: editTmp}); err != nil {
		return "", err
	}
	if !bumpConst(fn, bump) {
		return "", fmt.Errorf("@%s has no constant operand", step.Target)
	}
	return e.text[:sec[0]] + funcText(fn, step.Target) + e.text[sec[1]:], nil
}

// bumpConst adds by to the first i64 constant operand of a binary
// instruction in fn.
func bumpConst(fn *ir.Func, by int64) bool {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if !in.Op.IsBinary() {
				continue
			}
			for i, arg := range in.Args {
				if c, ok := arg.(*ir.Const); ok && c.Ty == ir.I64 {
					in.Args[i] = ir.ConstInt(c.Val + by)
					return true
				}
			}
		}
	}
	return false
}

// funcText prints fn as ir.Print prints a function, under name.
func funcText(fn *ir.Func, name string) string {
	var b strings.Builder
	b.WriteString("\nfunc @" + name + strings.TrimPrefix(fn.Sig(), "@"+fn.Name) + " {\n")
	for _, blk := range fn.Blocks {
		b.WriteString(blk.Name + ":\n")
		for _, in := range blk.Instrs {
			b.WriteString("  " + ir.FormatInstr(in) + "\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// The service-mix stream comes in blocks of mixBlock draws, and a timed
// phase bounded by time stops only at a whole block. The warm-up runs
// whole blocks until its draws have reached more distinct keys than the
// daemon's response cache holds, so that cache is full and evicting
// before timing starts.
const (
	mixBlock          = 1000
	responseCacheSize = 512 // server.Config's default
)

// serviceMix draws from a fixed key space with a seeded Zipf law (s =
// 1.01). The key space exceeds the daemon's response cache and its
// distinct sources the artifact cache (64). It is the same for every
// seed: the costs of generated programs are heavy-tailed, and a seed that
// drew a costlier set of them would change the workload's cost, not just
// its order.
//
// Each block is drawn by systematic sampling: evenly spaced points of the
// law's distribution function, shifted by a phase that advances by the
// golden ratio from block to block, in a seeded order. Every block holds
// each popular key its expected number of times, and the rare keys spread
// evenly over the blocks. With independent draws, how often a few costly
// rare keys came up moved a run's allocations by several percent.
func serviceMix(seed int64, quick bool) (*stream, error) {
	classes, err := mixClasses(quick)
	if err != nil {
		return nil, err
	}
	keys := byRank(classes)
	// Encoding the requests here keeps that client work out of the timed
	// phase, whose allocations two clients cannot tell from the daemon's.
	for _, it := range keys {
		if _, err := it.body(); err != nil {
			return nil, err
		}
	}
	cdf := make([]float64, len(keys))
	total := 0.0
	for k := range cdf {
		total += math.Pow(float64(k+1), -1.01)
		cdf[k] = total
	}
	block, warmup := mixBlock, 0
	if quick {
		block, warmup = 10, 10
	}
	phase := rand.New(rand.NewSource(seed)).Float64()
	var draws []int
	draw := func(i int) int {
		for len(draws) <= i {
			b := len(draws) / block
			shift := math.Mod(phase+float64(b)*0.6180339887498949, 1)
			ranks := make([]int, block)
			for j := range ranks {
				ranks[j] = sort.SearchFloat64s(cdf, (float64(j)+shift)/float64(block)*total)
			}
			for _, j := range rand.New(rand.NewSource(seed*7_919 + int64(b))).Perm(block) {
				draws = append(draws, ranks[j])
			}
		}
		return draws[i]
	}
	if !quick {
		seen := map[int]bool{}
		for len(seen) <= responseCacheSize || warmup%block != 0 {
			seen[draw(warmup)] = true
			warmup++
		}
	}
	var mu sync.Mutex
	return &stream{warmup: warmup, period: block, at: func(i int) (*item, error) {
		mu.Lock()
		defer mu.Unlock()
		return keys[draw(i)], nil
	}}, nil
}

// mixClasses builds the service-mix key space by class. Its generated
// programs come from one fixed generator seed.
func mixClasses(quick bool) ([][]*item, error) {
	progs := corpus.All()
	nprogen := 1000
	if quick {
		progs, nprogen = progs[:2], 10
	}
	var corpusKeys []*item
	for _, p := range progs {
		if p.Target == "redis" {
			continue
		}
		src := p.Source()
		base := cli.Request{Program: p.Name + ".pmc", Source: src, Entry: p.Entry}
		variant := func(name string, edit func(*cli.Request), check func(*answer) error) {
			q := base
			edit(&q)
			corpusKeys = append(corpusKeys, &item{key: name + ":" + p.Name, req: q, check: check})
		}
		repairOK := all(wantSites(len(p.Bugs)), wantRepaired, func(a *answer) error {
			return wantReturn(a.RepairedIR, p.Entry, nil, p.WantRet)
		})
		variant("repair", func(q *cli.Request) { q.Mode = cli.ModeRepair }, repairOK)
		variant("check", func(q *cli.Request) { q.Mode = cli.ModeCheck }, wantSites(len(p.Bugs)))
		if quick {
			continue
		}
		if strings.Contains(src, "crash_check(") || strings.Contains(src, "invariant_check(") {
			variant("repair+crash", func(q *cli.Request) {
				q.Mode, q.CrashCheck, q.CrashPoints, q.CrashImages, q.StepLimit = cli.ModeRepair, true, crashPoints, crashImages, stepLimit
			}, repairOK)
		}
		variant("static-check", func(q *cli.Request) { q.Mode, q.Static = cli.ModeCheck, true }, func(a *answer) error {
			// Static detection over-approximates dynamic detection.
			if a.SitesBefore < len(p.Bugs) {
				return fmt.Errorf("static sites_before %d < %d recorded bug(s)", a.SitesBefore, len(p.Bugs))
			}
			return nil
		})
		variant("repair-clflushopt", func(q *cli.Request) { q.Mode, q.Flush = cli.ModeRepair, "clflushopt" }, repairOK)
		variant("repair-trace-aa", func(q *cli.Request) { q.Mode, q.Marks = cli.ModeRepair, "trace-aa" }, repairOK)
	}
	rng := rand.New(rand.NewSource(1))
	var repairs, checks []*item
	for len(repairs) < nprogen {
		s := rng.Int63n(1 << 31)
		m := progen.Generate(s, progen.DefaultConfig())
		kept, err := checksumKept(m)
		if err != nil {
			return nil, err
		}
		q := cli.Request{Program: fmt.Sprintf("progen-%d.pmir", s), Source: ir.Print(m)}
		r, c := q, q
		r.Mode, c.Mode = cli.ModeRepair, cli.ModeCheck
		repairs = append(repairs, &item{key: fmt.Sprintf("repair:progen-%d", s), req: r, check: all(wantRepaired, kept)})
		checks = append(checks, &item{key: fmt.Sprintf("check:progen-%d", s), req: c})
	}
	return [][]*item{corpusKeys, mtItems(quick), repairs, checks}, nil
}

// byRank orders the key space for the Zipf draw: rank r's class follows a
// fixed interleaving proportional to class sizes, and each class keeps its
// own order. The corpus programs' costs differ by an order of magnitude,
// and an order that made a costly one popular would change the workload's
// cost.
func byRank(classes [][]*item) []*item {
	total := 0
	for _, c := range classes {
		total += len(c)
	}
	out := make([]*item, 0, total)
	used := make([]int, len(classes))
	for r := 0; r < total; r++ {
		best, deficit := -1, 0.0
		for k, c := range classes {
			if used[k] == len(c) {
				continue
			}
			d := float64(len(c))*float64(r+1)/float64(total) - float64(used[k])
			if best < 0 || d > deficit {
				best, deficit = k, d
			}
		}
		out = append(out, classes[best][used[best]])
		used[best]++
	}
	return out
}
