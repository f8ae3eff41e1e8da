package interp

import (
	"runtime"
	"testing"
	"unsafe"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// buildPMLoop returns a module whose main(n) performs n iterations of
// store→flush→fence on one PM line: 3 PM events per iteration, the
// interpreter's hot path.
func buildPMLoop(t testing.TB) *ir.Module {
	t.Helper()
	m := newModule("allocloop")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	i := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), i)
	cond := b.NewBlock("cond")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jmp(cond)
	b.SetBlock(cond)
	iv := b.Load(ir.I64, i)
	c := b.Cmp(ir.OpLt, iv, f.Params[0])
	b.Br(c, body, exit)
	b.SetBlock(body)
	g := m.Global("cell")
	b.Store(ir.I64, iv, g)
	b.Flush(ir.CLWB, g)
	b.Fence(ir.SFENCE)
	inc := b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1))
	b.Store(ir.I64, inc, i)
	b.Jmp(cond)
	b.SetBlock(exit)
	b.Ret(ir.ConstInt(0))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// runAllocs measures heap allocations for one full run (machine
// construction included) of main(iters).
func runAllocs(t *testing.T, m *ir.Module, iters uint64, traced bool) float64 {
	t.Helper()
	return testing.AllocsPerRun(5, func() {
		var tr *trace.Trace
		if traced {
			tr = &trace.Trace{Program: "alloc"}
		}
		mach, err := New(m, Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("main", iters); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsPerEvent guards the interpreter's per-PM-event allocation
// budget: store payloads, tracker records and trace events come from
// arenas, call stacks are interned once per distinct stack, and the
// tracker reuses its per-line lists, fence queues and scratch buffers, so
// what is left is arena chunk refills (~0.007 per event untraced, ~0.013
// traced on this workload).
// The bounds have headroom over the measured values but sit far below
// one heap allocation per store — they fail `make verify` if someone
// reintroduces per-event allocation, without pinning exact counts.
func TestRunAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	m := buildPMLoop(t)
	const iters = 2000
	const events = 3 * iters // store + flush + fence per iteration

	// Fixed per-run overhead (machine construction, globals, final
	// checkpoint): measured at zero iterations.
	fixed := runAllocs(t, m, 0, false)
	fixedTraced := runAllocs(t, m, 0, true)

	untraced := runAllocs(t, m, iters, false)
	perEvent := (untraced - fixed) / events
	t.Logf("untraced: %.0f allocs total, %.4f per PM event (fixed %.0f)", untraced, perEvent, fixed)
	if perEvent > 0.05 {
		t.Errorf("untraced hot path allocates %.4f objects per PM event, want <= 0.05", perEvent)
	}

	traced := runAllocs(t, m, iters, true)
	perEventTraced := (traced - fixedTraced) / events
	t.Logf("traced: %.0f allocs total, %.4f per PM event (fixed %.0f)", traced, perEventTraced, fixedTraced)
	if perEventTraced > 0.1 {
		t.Errorf("traced hot path allocates %.4f objects per PM event, want <= 0.1 (arena-backed trace recording)", perEventTraced)
	}

	// Tracing's bytes per event, over what the untraced run allocates:
	// the Event record and its amortized slot in the trace's pointer
	// slice (~126 B on amd64). The loop's three stacks are interned in
	// its first iteration, so frames add nothing per event after it; a
	// private one-frame copy per event measured ~174 B.
	tracedBytes := func(n uint64) (uint64, int) {
		b, events := runBytes(t, m, n, true)
		u, _ := runBytes(t, m, n, false)
		return b - u, events
	}
	b1, e1 := tracedBytes(iters / 2)
	b2, e2 := tracedBytes(iters)
	bytesPerEvent := float64(b2-b1) / float64(e2-e1)
	maxBytes := float64(unsafe.Sizeof(trace.Event{})) + 40
	t.Logf("traced: %.1f bytes per PM event over untraced (bound %.0f)", bytesPerEvent, maxBytes)
	if bytesPerEvent > maxBytes {
		t.Errorf("tracing costs %.1f bytes per PM event, want <= %.0f (an event record and its trace slot, no frames)", bytesPerEvent, maxBytes)
	}
	stacksAfter := func(n uint64) int {
		tab := NewStackTable()
		mach, err := New(m, Options{Trace: &trace.Trace{}, Stacks: tab})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("main", n); err != nil {
			t.Fatal(err)
		}
		return len(tab.stacks)
	}
	if one, all := stacksAfter(1), stacksAfter(iters); one != all {
		t.Errorf("stack table holds %d stacks after one iteration but %d after %d", one, all, iters)
	}
}

// buildFlushFreeLoop returns a module whose main stores to n distinct PM
// cells, passing a durability point after each store and never
// persisting anything: pending stores only grow, so checkpoint k sees k
// violations and the run observes n(n+1)/2 of them in total.
func buildFlushFreeLoop(t testing.TB, n int64) *ir.Module {
	t.Helper()
	m := newModule("flushfree")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	pm := b.Call(m.Func("pm_alloc"), ir.ConstInt(8*n))
	i := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), i)
	cond := b.NewBlock("cond")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jmp(cond)
	b.SetBlock(cond)
	iv := b.Load(ir.I64, i)
	b.Br(b.Cmp(ir.OpLt, iv, ir.ConstInt(n)), body, exit)
	b.SetBlock(body)
	b.Store(ir.I64, iv, b.PtrAdd(pm, iv, 8, 0))
	b.Call(m.Func("pm_checkpoint"))
	b.Store(ir.I64, b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1)), i)
	b.Jmp(cond)
	b.SetBlock(exit)
	b.Ret(ir.ConstInt(0))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFlushFreeAllocsLinear: the bytes a tracked flush-free run allocates
// grow linearly with its durability points, although the violations it
// observes grow quadratically — the machine counts them instead of
// collecting them.
func TestFlushFreeAllocsLinear(t *testing.T) {
	bytesFor := func(n int64) uint64 {
		m := buildFlushFreeLoop(t, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		mach, err := New(m, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("main"); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		// n explicit points plus the implicit one at exit.
		if got, want := mach.NumViolations(), int(n*(n+1)/2+n); got != want {
			t.Fatalf("n=%d: violations = %d, want %d", n, got, want)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := bytesFor(100), bytesFor(400)
	t.Logf("allocated %d bytes at 100 checkpoints, %d at 400 (%.1fx)", small, large, float64(large)/float64(small))
	// Linear growth is 4x; quadratic would be 16x.
	if large > 6*small {
		t.Errorf("400 checkpoints allocate %d bytes, over 6x the %d at 100: super-linear", large, small)
	}
}

// runBytes measures the heap bytes one full run (machine construction
// included) of main(iters) allocates, averaged over runs.
func runBytes(t *testing.T, m *ir.Module, iters uint64, traced bool) (uint64, int) {
	t.Helper()
	const runs = 20
	var before, after runtime.MemStats
	events := 0
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		var tr *trace.Trace
		if traced {
			tr = &trace.Trace{Program: "alloc"}
		}
		mach, err := New(m, Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := mach.Run("main", iters); err != nil {
			t.Fatal(err)
		}
		if traced {
			events = len(tr.Events)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / runs, events
}

// TestShortTracedRunBytes: a traced run of a short program allocates in
// proportion to the events it records, not a long trace's fixed chunks.
// Trace events, stack frames and tracker records come from arenas whose
// first chunks are small, and a tracker nobody asks for a crash image
// never materializes a durable page. A run recording 26 events measures
// about 13.1 KB on amd64 (12.7 KB before it had a stack table to build); with 4 KiB memory pages and a builtin table
// per machine it measured about 21 KB, and with full-size first chunks
// (512 events, 1,024 frames) and an eagerly written durable image about
// 124 KB.
func TestShortTracedRunBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	m := buildPMLoop(t)
	bytes, events := runBytes(t, m, 8, true)
	t.Logf("traced run of %d events: %d bytes", events, bytes)
	if events > 50 {
		t.Fatalf("short program recorded %d events, want <= 50", events)
	}
	if bytes > 32<<10 {
		t.Errorf("traced run of %d events allocates %d bytes, want <= 32 KiB", events, bytes)
	}
}
