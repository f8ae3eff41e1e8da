package pmcheck_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"reflect"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/progen"
	"hippocrates/internal/schedule"
	"hippocrates/internal/trace"
)

// requireSame fails unless got deep-equals want: every report (store,
// stacks, flush sites, checkpoints, occurrences, class and cross-thread
// flags), the redundant flushes and fences, the counters, LinesTouched,
// Threads and CrossThreadPublishes.
func requireSame(t *testing.T, what string, got, want *pmcheck.Result) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results differ\n--- got\n%s%+v\n--- want\n%s%+v", what, got.Summary(), *got, want.Summary(), *want)
	}
}

// oracle runs modules online three ways — the pipeline's own
// core.TraceAndCheck (a fresh detector), a machine reusing one shared
// detector (reset between runs), and every explored interleaving of the
// threaded ones — and holds each verdict against pmcheck.Check's replay
// of the run's recorded trace (for an explored run, of the trace a fresh
// machine records under its choices).
type oracle struct {
	t      *testing.T
	shared *pmcheck.Detector
	// Totals over every compared run, so the sweep provably reached
	// reports, cross-thread publishes and explored runs.
	runs, explored, reports, publishes int
}

func (o *oracle) single(name string, m *ir.Module, entry string) {
	t := o.t
	run, err := core.TraceAndCheck(nil, m, entry, core.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	requireSame(t, name+" online vs replay", run.Check, pmcheck.Check(run.Trace))

	tr := &trace.Trace{Program: m.Name}
	mach, err := interp.New(m, interp.Options{Trace: tr, Detector: o.shared})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := mach.Run(entry); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got, want := tr.String(), run.Trace.String(); got != want {
		t.Fatalf("%s: a shared detector changed the trace", name)
	}
	requireSame(t, name+" reset detector vs fresh", o.shared.Result(), run.Check)
	o.runs++
	o.reports += len(run.Check.Reports)
	o.publishes += run.Check.CrossThreadPublishes
}

func (o *oracle) explore(name string, m *ir.Module, entry string) {
	t := o.t
	res, err := schedule.Explore(m, entry, nil, schedule.Options{})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, r := range res.Runs {
		if r.Check == nil {
			continue // the interleaving faulted: no verdict to compare
		}
		// The explorer recorded the run into a machine recycled from
		// earlier runs; a fresh machine replaying its choices records the
		// trace to replay.
		tr := &trace.Trace{Program: m.Name}
		mach, err := interp.New(m, interp.Options{Trace: tr, Schedule: r.Choices})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := mach.Run(entry); err != nil {
			t.Fatalf("%s schedule %s: replay: %v", name, r.ID, err)
		}
		requireSame(t, name+" schedule "+r.ID, r.Check, pmcheck.Check(tr))
		o.explored++
		o.reports += len(r.Check.Reports)
		o.publishes += r.Check.CrossThreadPublishes
	}
}

// TestOnlineMatchesReplay: detecting while the program runs reaches
// exactly the verdict replaying its recorded trace does, over the corpus,
// the concurrent corpus, 250 generated programs and 200 generated
// threaded programs with every explored interleaving; and a detector
// reset between runs matches a fresh one.
func TestOnlineMatchesReplay(t *testing.T) {
	o := &oracle{t: t, shared: pmcheck.NewDetector()}
	for _, p := range corpus.All() {
		o.single(p.Name, p.MustCompile(), p.Entry)
	}
	for _, p := range corpus.MTPrograms() {
		m := p.MustCompile()
		o.single(p.Name, m, p.Entry)
		o.explore(p.Name, m, p.Entry)
	}
	for seed := int64(0); seed < 250; seed++ {
		m := progen.Generate(seed, progen.DefaultConfig())
		o.single(m.Name, m, "main")
	}
	for seed := int64(0); seed < 200; seed++ {
		m := progen.Generate(seed, progen.ThreadedConfig(seed))
		o.single(m.Name+"-threaded", m, "main")
		o.explore(m.Name+"-threaded", m, "main")
	}
	t.Logf("%d single runs, %d explored runs, %d reports, %d cross-thread publishes", o.runs, o.explored, o.reports, o.publishes)
	if o.reports == 0 || o.publishes == 0 || o.explored == 0 {
		t.Errorf("sweep exercised too little: %d reports, %d publishes, %d explored runs", o.reports, o.publishes, o.explored)
	}
}

// publishVia is a worker store left pending on the shard's line while
// main durably publishes the shard's address into head, written by the
// statement filled in for %s.
const publishVia = `
struct shard { int val; byte pad[56]; };
struct pubroot { shard s; byte *head; };
void worker() {
	pubroot *r = (pubroot*) pm_root(sizeof(pubroot));
	r->s.val = 42;
}
int main() {
	pubroot *r = (pubroot*) pm_root(sizeof(pubroot));
	int t = spawn(worker);
	join(t);
	byte *p = (byte*) &r->s;
	%s
	clwb((byte*) &r->head);
	sfence();
	pm_checkpoint();
	return r->s.val;
}
`

// TestOnlinePublishFollowsRecordedValues: publish detection follows a
// pointer only where the trace records the stored value (a scalar store
// of a PM address records it; a memcpy's byte chunks do not), so the
// online verdict is the one a replay of the trace can reach — even
// though the running program's bytes hold the pointer either way.
func TestOnlinePublishFollowsRecordedValues(t *testing.T) {
	for _, c := range []struct {
		name, publish string
		publishes     int
	}{
		{"store", "r->head = p;", 1},
		{"memcpy", "memcpy((byte*) &r->head, (byte*) &p, 8);", 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			m, err := lang.Compile(c.name+".pmc", fmt.Sprintf(publishVia, c.publish))
			if err != nil {
				t.Fatal(err)
			}
			run, err := core.TraceAndCheck(nil, m, "main", core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			requireSame(t, c.name, run.Check, pmcheck.Check(run.Trace))
			if got := run.Check.CrossThreadPublishes; got != c.publishes {
				t.Errorf("cross-thread publishes = %d, want %d", got, c.publishes)
			}
		})
	}
}

// runDigest is what a machine's run shows besides the detector's verdict:
// its result, simulated time, violation count, PM event log and trace
// text, and a digest of the crash state at every durability point.
type runDigest struct {
	ret        uint64
	steps      int64
	simNs      float64
	violations int
	events     []interp.PMEventKind
	trace      string
	ckpts      []uint64
}

func digestRun(t *testing.T, m *ir.Module, entry string, d *pmcheck.Detector) runDigest {
	t.Helper()
	var dg runDigest
	tr := &trace.Trace{Program: m.Name}
	var mach *interp.Machine
	mach, err := interp.New(m, interp.Options{
		Trace:    tr,
		Detector: d,
		OnPMEvent: func(k int, kind interp.PMEventKind) error {
			if kind == interp.EvCheckpoint {
				cs := mach.CaptureCrashState()
				h := fnv.New64a()
				binary.Write(h, binary.LittleEndian, cs.BaseHash())
				for _, ln := range cs.Lines {
					for _, st := range ln.Stores {
						binary.Write(h, binary.LittleEndian, [2]uint64{uint64(st.Seq), st.Addr})
						h.Write(st.Data())
					}
				}
				dg.ckpts = append(dg.ckpts, h.Sum64())
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if dg.ret, err = mach.Run(entry); err != nil {
		t.Fatalf("%s: %v", m.Name, err)
	}
	dg.steps, dg.simNs, dg.violations = mach.Steps(), mach.SimTime(), mach.NumViolations()
	dg.events = mach.PMEventLog()
	dg.trace = tr.String()
	return dg
}

// TestDetectorLeavesRunUnchanged: a machine given a detector runs
// exactly as one tracking on its own — same return value, steps,
// simulated time, online violation count, PM event log, trace text and
// crash state at every durability point.
func TestDetectorLeavesRunUnchanged(t *testing.T) {
	d := pmcheck.NewDetector()
	check := func(name string, m *ir.Module, entry string) {
		if got, want := digestRun(t, m, entry, d), digestRun(t, m, entry, nil); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: a run with a detector differs from one without", name)
		}
	}
	for _, p := range corpus.All() {
		check(p.Name, p.MustCompile(), p.Entry)
	}
	for _, p := range corpus.MTPrograms() {
		check(p.Name, p.MustCompile(), p.Entry)
	}
}
