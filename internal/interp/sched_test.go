package interp

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// buildSpawnJoin builds: worker(x) { atomic_add(&vcnt, 1); cell = x;
// clwb(cell); sfence; return x+1 } and main() { t = spawn worker(41);
// r = join t; return r + atomic_load(&vcnt) }.
func buildSpawnJoin(t *testing.T) *ir.Module {
	t.Helper()
	m := newModule("mt")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	m.AddGlobal(&ir.Global{Name: "vcnt", Elem: ir.I64})

	w := ir.NewFunc("worker", ir.I64, &ir.Param{Name: "x", Ty: ir.I64})
	m.AddFunc(w)
	b := ir.NewBuilder(w)
	b.AtomicRMW(ir.RMWAdd, ir.ConstInt(1), m.Global("vcnt"))
	b.Store(ir.I64, w.Params[0], m.Global("cell"))
	b.Flush(ir.CLWB, m.Global("cell"))
	b.Fence(ir.SFENCE)
	b.Ret(b.Bin(ir.OpAdd, ir.I64, w.Params[0], ir.ConstInt(1)))
	w.Renumber()

	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b = ir.NewBuilder(f)
	h := b.Spawn(w, ir.ConstInt(41))
	r := b.Join(h)
	v := b.AtomicLoad(ir.OrderSeqCst, m.Global("vcnt"))
	b.Ret(b.Bin(ir.OpAdd, ir.I64, r, v))
	f.Renumber()
	return m
}

func TestSpawnJoin(t *testing.T) {
	m := buildSpawnJoin(t)
	mach, got := run(t, m, "main")
	if got != 43 {
		t.Errorf("main() = %d, want 43", got)
	}
	if n := mach.ThreadCount(); n != 2 {
		t.Errorf("ThreadCount() = %d, want 2", n)
	}
	if n := mach.NumViolations(); n != 0 {
		t.Errorf("unexpected violations: %d", n)
	}
	if got := mach.Mem.ReadUint(mach.GlobalAddr("cell"), 8); got != 41 {
		t.Errorf("cell = %d, want 41", got)
	}
}

// buildTwoWriters builds main spawning two workers that store distinct
// values to distinct PM lines (flushed and fenced), then joins both.
// Every interleaving returns 3; the trace event order differs.
func buildTwoWriters(t *testing.T) *ir.Module {
	t.Helper()
	m := newModule("mt2")
	m.AddGlobal(&ir.Global{Name: "a", Elem: ir.I64, PM: true})
	m.AddGlobal(&ir.Global{Name: "b", Elem: ir.I64, PM: true})

	for i, name := range []string{"w1", "w2"} {
		g := []string{"a", "b"}[i]
		w := ir.NewFunc(name, ir.I64)
		m.AddFunc(w)
		wb := ir.NewBuilder(w)
		wb.Store(ir.I64, ir.ConstInt(int64(10+i)), m.Global(g))
		wb.Flush(ir.CLWB, m.Global(g))
		wb.Fence(ir.SFENCE)
		wb.Ret(ir.ConstInt(int64(1 + i)))
		w.Renumber()
	}

	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	h1 := fb.Spawn(m.Func("w1"))
	h2 := fb.Spawn(m.Func("w2"))
	r1 := fb.Join(h1)
	r2 := fb.Join(h2)
	fb.Ret(fb.Bin(ir.OpAdd, ir.I64, r1, r2))
	f.Renumber()
	return m
}

func runSched(t *testing.T, m *ir.Module, sched []int) (*Machine, uint64, string) {
	t.Helper()
	tr := &trace.Trace{}
	mach, err := New(m, Options{Trace: tr, Schedule: sched})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := mach.Run("main")
	if err != nil {
		t.Fatalf("run(%v): %v", sched, err)
	}
	return mach, ret, tr.String()
}

func TestScheduleReplayIsExact(t *testing.T) {
	m := buildTwoWriters(t)
	mach, ret, base := runSched(t, m, nil)
	if ret != 3 {
		t.Fatalf("main() = %d, want 3", ret)
	}
	ds := mach.Decisions()
	if len(ds) == 0 {
		t.Fatal("expected scheduling decisions with three runnable threads")
	}
	choices := make([]int, len(ds))
	for i, d := range ds {
		choices[i] = d.Chosen
	}

	// Replaying the run's own decision log reproduces it byte-for-byte.
	_, ret2, replay := runSched(t, m, choices)
	if ret2 != 3 || replay != base {
		t.Errorf("replay diverged: ret=%d\n--- base ---\n%s--- replay ---\n%s", ret2, base, replay)
	}

	// Deviating at the first decision point yields a different (but
	// still correct) interleaving.
	alt := append([]int(nil), choices...)
	alt[0] = (ds[0].Chosen + 1) % len(ds[0].Runnable)
	if alt[0] == choices[0] {
		t.Fatalf("could not build deviating schedule from %v", ds[0])
	}
	_, ret3, dev := runSched(t, m, alt[:1])
	if ret3 != 3 {
		t.Errorf("deviating schedule returned %d, want 3", ret3)
	}
	if dev == base {
		t.Errorf("deviating schedule produced an identical trace")
	}
}

func TestUnjoinedThreadFaults(t *testing.T) {
	m := newModule("unjoined")
	w := ir.NewFunc("w", ir.I64)
	m.AddFunc(w)
	wb := ir.NewBuilder(w)
	wb.Ret(ir.ConstInt(0))
	w.Renumber()
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	fb.Spawn(w)
	fb.Ret(ir.ConstInt(0))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run("main")
	if err == nil || !strings.Contains(err.Error(), "still running") {
		t.Errorf("want unjoined-thread error, got %v", err)
	}
}

func TestThreadErrorPropagates(t *testing.T) {
	m := newModule("thrfault")
	w := ir.NewFunc("w", ir.I64, &ir.Param{Name: "d", Ty: ir.I64})
	m.AddFunc(w)
	wb := ir.NewBuilder(w)
	wb.Ret(wb.Bin(ir.OpSDiv, ir.I64, ir.ConstInt(1), w.Params[0]))
	w.Renumber()
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	h := fb.Spawn(w, ir.ConstInt(0))
	fb.Ret(fb.Join(h))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run("main")
	if err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("want division-by-zero from spawned thread, got %v", err)
	}
}

func TestDoubleJoinFaults(t *testing.T) {
	m := newModule("dj")
	w := ir.NewFunc("w", ir.I64)
	m.AddFunc(w)
	wb := ir.NewBuilder(w)
	wb.Ret(ir.ConstInt(0))
	w.Renumber()
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	h := fb.Spawn(w)
	fb.Join(h)
	fb.Ret(fb.Join(h))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run("main")
	if err == nil || !strings.Contains(err.Error(), "joined twice") {
		t.Errorf("want double-join error, got %v", err)
	}
}

// TestJoinCycleDeadlocks: a worker joining its own handle (the first
// spawn is always thread 1) while main joins the worker leaves no
// runnable thread; the run must fault naming every blocked join instead
// of hanging.
func TestJoinCycleDeadlocks(t *testing.T) {
	m := newModule("deadlock")
	w := ir.NewFunc("w", ir.I64)
	m.AddFunc(w)
	wb := ir.NewBuilder(w)
	wb.Ret(wb.Join(ir.ConstInt(1)))
	w.Renumber()
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	fb.Ret(fb.Join(fb.Spawn(w)))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run("main")
	const want = "deadlock: no runnable thread (thread 0 joins 1, thread 1 joins 1)"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("want %q, got %v", want, err)
	}
}

func TestAtomicOps(t *testing.T) {
	m := newModule("atomics")
	m.AddGlobal(&ir.Global{Name: "v", Elem: ir.I64})
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	g := m.Global("v")
	b.AtomicStore(ir.OrderRelease, ir.ConstInt(5), g)
	old := b.AtomicRMW(ir.RMWAdd, ir.ConstInt(3), g)        // v=8, old=5
	xch := b.AtomicRMW(ir.RMWXchg, ir.ConstInt(20), g)      // v=20, xch=8
	miss := b.AtomicCAS(ir.ConstInt(7), ir.ConstInt(0), g)  // miss: v=20, miss=20
	hit := b.AtomicCAS(ir.ConstInt(20), ir.ConstInt(31), g) // hit: v=31, hit=20
	cur := b.AtomicLoad(ir.OrderAcquire, g)                 // 31
	s1 := b.Bin(ir.OpAdd, ir.I64, old, xch)
	s2 := b.Bin(ir.OpAdd, ir.I64, miss, hit)
	s3 := b.Bin(ir.OpAdd, ir.I64, s1, s2)
	b.Ret(b.Bin(ir.OpAdd, ir.I64, s3, cur)) // 5+8+20+20+31 = 84
	f.Renumber()
	_, got := run(t, m, "main")
	if got != 84 {
		t.Errorf("main() = %d, want 84", got)
	}
}

func TestAtomicPMStoreIsTracked(t *testing.T) {
	m := newModule("atomicpm")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.AtomicStore(ir.OrderSeqCst, ir.ConstInt(9), m.Global("cell"))
	b.Ret(ir.ConstInt(0))
	f.Renumber()
	mach, _ := run(t, m, "main")
	// Atomicity does not persist: the store must show up as a violation
	// at the implicit final durability point.
	if mach.NumViolations() == 0 {
		t.Fatal("atomic PM store without flush/fence should violate durability")
	}
}

// TestCrossThreadPublish is the unordered-publish shape: a worker
// writes fields without persisting them, main joins and publishes the
// object's address durably. The tracker must attribute the pending
// referent stores to the worker thread.
func TestCrossThreadPublish(t *testing.T) {
	m := newModule("pub")
	m.AddGlobal(&ir.Global{Name: "shard", Elem: ir.I64, PM: true})
	m.AddGlobal(&ir.Global{Name: "head", Elem: ir.Ptr, PM: true})

	w := ir.NewFunc("w", ir.I64)
	m.AddFunc(w)
	wb := ir.NewBuilder(w)
	wb.Store(ir.I64, ir.ConstInt(42), m.Global("shard")) // BUG: never flushed
	wb.Ret(ir.ConstInt(0))
	w.Renumber()

	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	fb := ir.NewBuilder(f)
	h := fb.Spawn(w)
	fb.Join(h)
	fb.Store(ir.Ptr, m.Global("shard"), m.Global("head"))
	fb.Flush(ir.CLWB, m.Global("head"))
	fb.Fence(ir.SFENCE)
	fb.Ret(ir.ConstInt(0))
	f.Renumber()

	mach, ret := run(t, m, "main")
	if ret != 0 {
		t.Fatalf("main() = %d, want 0", ret)
	}
	pubs := mach.Track.Publishes
	if len(pubs) != 1 {
		t.Fatalf("Publishes = %d records, want 1 (%v)", len(pubs), pubs)
	}
	p := pubs[0]
	if p.PubTid != 0 || p.Referent == nil || p.Referent.Tid != 1 {
		t.Errorf("publish provenance wrong: pubTid=%d referent=%+v", p.PubTid, p.Referent)
	}
}

func TestScheduleIDRoundTrip(t *testing.T) {
	cases := []struct {
		id      string
		choices []int
	}{
		{"rr", nil},
		{"c:0", []int{0}},
		{"c:1.0.2", []int{1, 0, 2}},
	}
	for _, c := range cases {
		if got := ScheduleID(c.choices); got != c.id {
			t.Errorf("ScheduleID(%v) = %q, want %q", c.choices, got, c.id)
		}
		got, err := ParseScheduleID(c.id)
		if err != nil || !reflect.DeepEqual(got, c.choices) {
			t.Errorf("ParseScheduleID(%q) = %v, %v; want %v", c.id, got, err, c.choices)
		}
	}
	for _, bad := range []string{"x", "c:", "c:1..2", "c:-1", "c:a"} {
		if _, err := ParseScheduleID(bad); err == nil {
			t.Errorf("ParseScheduleID(%q) succeeded, want error", bad)
		}
	}
}

// TestScheduleChoiceOutOfRange: a replayed schedule whose choice names
// no runnable thread (pmvm -sched c:9) faults with a message naming the
// decision index, the requested choice and the runnable count.
func TestScheduleChoiceOutOfRange(t *testing.T) {
	m := buildTwoWriters(t)
	mach, _, _ := runSched(t, m, nil)
	ds := mach.Decisions()
	if len(ds) < 2 {
		t.Fatalf("round-robin run took %d decisions, want >= 2", len(ds))
	}
	for _, tc := range []struct {
		id       string
		decision int
	}{{"c:9", 0}, {"c:0.9", 1}} {
		choices, err := ParseScheduleID(tc.id)
		if err != nil {
			t.Fatal(err)
		}
		mach, err := New(m, Options{Schedule: choices})
		if err != nil {
			t.Fatal(err)
		}
		_, err = mach.Run("main")
		want := fmt.Sprintf("schedule decision %d: choice 9 out of range (%d runnable threads)",
			tc.decision, len(ds[tc.decision].Runnable))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("schedule %s: error %v, want it to contain %q", tc.id, err, want)
		}
	}
}

// TestPendingOpSize: every decision point copies one PendingOp per
// runnable thread into the decision log, so the struct stays packed.
func TestPendingOpSize(t *testing.T) {
	if got := unsafe.Sizeof(PendingOp{}); got != 24 {
		t.Errorf("PendingOp is %d bytes, want 24", got)
	}
}
