package interp

import (
	"strings"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// newModule builds a module with the standard declarations installed.
func newModule(name string) *ir.Module {
	m := ir.NewModule(name)
	for _, d := range StdDecls() {
		m.AddFunc(d)
	}
	return m
}

func run(t *testing.T, m *ir.Module, entry string, args ...uint64) (*Machine, uint64) {
	t.Helper()
	if err := ir.Verify(m); err != nil {
		t.Fatalf("module does not verify: %v", err)
	}
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := mach.Run(entry, args...)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return mach, ret
}

// runChecked is run with a trace recorded and handed to the offline
// detector, for tests that assert what the violations are rather than
// how many the machine counted online.
func runChecked(t *testing.T, m *ir.Module, entry string) (*Machine, *pmcheck.Result) {
	t.Helper()
	tr := &trace.Trace{Program: m.Name}
	mach, err := New(m, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(entry); err != nil {
		t.Fatalf("run: %v", err)
	}
	return mach, pmcheck.Check(tr)
}

func TestArithmetic(t *testing.T) {
	m := newModule("arith")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	x := ir.ConstInt(10)
	y := ir.ConstInt(3)
	add := b.Bin(ir.OpAdd, ir.I64, x, y)                 // 13
	sub := b.Bin(ir.OpSub, ir.I64, add, y)               // 10
	mul := b.Bin(ir.OpMul, ir.I64, sub, y)               // 30
	div := b.Bin(ir.OpSDiv, ir.I64, mul, ir.ConstInt(7)) // 4
	rem := b.Bin(ir.OpSRem, ir.I64, mul, ir.ConstInt(7)) // 2
	or := b.Bin(ir.OpOr, ir.I64, div, rem)               // 6
	shl := b.Bin(ir.OpShl, ir.I64, or, ir.ConstInt(2))   // 24
	shr := b.Bin(ir.OpAShr, ir.I64, shl, ir.ConstInt(1)) // 12
	xor := b.Bin(ir.OpXor, ir.I64, shr, ir.ConstInt(5))  // 9
	and := b.Bin(ir.OpAnd, ir.I64, xor, ir.ConstInt(13)) // 9
	b.Ret(and)
	f.Renumber()
	_, got := run(t, m, "main")
	if got != 9 {
		t.Errorf("main() = %d, want 9", got)
	}
}

func TestNegativeDivision(t *testing.T) {
	m := newModule("neg")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	div := b.Bin(ir.OpSDiv, ir.I64, ir.ConstInt(-7), ir.ConstInt(2))
	rem := b.Bin(ir.OpSRem, ir.I64, ir.ConstInt(-7), ir.ConstInt(2))
	sum := b.Bin(ir.OpAdd, ir.I64, div, rem) // -3 + -1 = -4
	b.Ret(sum)
	f.Renumber()
	_, got := run(t, m, "main")
	if int64(got) != -4 {
		t.Errorf("main() = %d, want -4 (Go-style truncated division)", int64(got))
	}
}

func TestDivisionByZeroFaults(t *testing.T) {
	m := newModule("divzero")
	f := ir.NewFunc("main", ir.I64, &ir.Param{Name: "d", Ty: ir.I64})
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	div := b.Bin(ir.OpSDiv, ir.I64, ir.ConstInt(1), f.Params[0])
	b.Ret(div)
	f.Renumber()
	mach, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main", 0); err == nil || !strings.Contains(err.Error(), "division by zero") {
		t.Errorf("err = %v, want division by zero", err)
	}
}

func TestControlFlowLoop(t *testing.T) {
	// sum 1..n via a loop through memory (alloca + load/store).
	m := newModule("loop")
	f := ir.NewFunc("sum", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	acc := b.Alloca(ir.I64)
	i := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), acc)
	b.Store(ir.I64, ir.ConstInt(1), i)
	cond := b.NewBlock("cond")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jmp(cond)
	b.SetBlock(cond)
	iv := b.Load(ir.I64, i)
	c := b.Cmp(ir.OpLe, iv, f.Params[0])
	b.Br(c, body, exit)
	b.SetBlock(body)
	av := b.Load(ir.I64, acc)
	sum := b.Bin(ir.OpAdd, ir.I64, av, iv)
	b.Store(ir.I64, sum, acc)
	inc := b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1))
	b.Store(ir.I64, inc, i)
	b.Jmp(cond)
	b.SetBlock(exit)
	res := b.Load(ir.I64, acc)
	b.Ret(res)
	f.Renumber()
	_, got := run(t, m, "sum", 100)
	if got != 5050 {
		t.Errorf("sum(100) = %d, want 5050", got)
	}
}

func TestCallsAndRecursion(t *testing.T) {
	// fib(n) with recursion.
	m := newModule("fib")
	f := ir.NewFunc("fib", ir.I64, &ir.Param{Name: "n", Ty: ir.I64})
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	c := b.Cmp(ir.OpLt, f.Params[0], ir.ConstInt(2))
	base := b.NewBlock("base")
	rec := b.NewBlock("rec")
	b.Br(c, base, rec)
	b.SetBlock(base)
	b.Ret(f.Params[0])
	b.SetBlock(rec)
	n1 := b.Bin(ir.OpSub, ir.I64, f.Params[0], ir.ConstInt(1))
	n2 := b.Bin(ir.OpSub, ir.I64, f.Params[0], ir.ConstInt(2))
	r1 := b.Call(f, n1)
	r2 := b.Call(f, n2)
	b.Ret(b.Bin(ir.OpAdd, ir.I64, r1, r2))
	f.Renumber()
	_, got := run(t, m, "fib", 15)
	if got != 610 {
		t.Errorf("fib(15) = %d, want 610", got)
	}
}

func TestGlobalsAndInit(t *testing.T) {
	m := newModule("globals")
	m.AddGlobal(&ir.Global{Name: "counter", Elem: ir.I64, Init: []byte{5, 0, 0, 0, 0, 0, 0, 0}})
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	g := m.Global("counter")
	v := b.Load(ir.I64, g)
	nv := b.Bin(ir.OpAdd, ir.I64, v, ir.ConstInt(1))
	b.Store(ir.I64, nv, g)
	b.Ret(b.Load(ir.I64, g))
	f.Renumber()
	_, got := run(t, m, "main")
	if got != 6 {
		t.Errorf("main() = %d, want 6", got)
	}
}

func TestCasts(t *testing.T) {
	m := newModule("casts")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	tr := b.Cast(ir.OpTrunc, ir.I8, ir.ConstInt(0x1ABC)) // 0xBC
	z := b.Cast(ir.OpZExt, ir.I64, tr)                   // 0xBC = 188
	p := b.Cast(ir.OpIntToPtr, ir.Ptr, ir.ConstInt(pmem.HeapBase))
	back := b.Cast(ir.OpPtrToInt, ir.I64, p)
	diff := b.Bin(ir.OpSub, ir.I64, back, ir.ConstInt(pmem.HeapBase))
	b.Ret(b.Bin(ir.OpAdd, ir.I64, z, diff))
	f.Renumber()
	_, got := run(t, m, "main")
	if got != 188 {
		t.Errorf("main() = %d, want 188", got)
	}
}

// buildPersistStore builds:
//
//	func main() { g[0] = 42; [flush] [fence] }
//
// with a PM global, optionally flushing/fencing.
func buildPersistStore(flush, fence bool) *ir.Module {
	m := newModule("persist")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.SetLoc(ir.Loc{File: "persist.pmc", Line: 2})
	g := m.Global("cell")
	b.Store(ir.I64, ir.ConstInt(42), g)
	if flush {
		b.SetLoc(ir.Loc{File: "persist.pmc", Line: 3})
		b.Flush(ir.CLWB, g)
	}
	if fence {
		b.SetLoc(ir.Loc{File: "persist.pmc", Line: 4})
		b.Fence(ir.SFENCE)
	}
	b.Ret(nil)
	f.Renumber()
	return m
}

func TestPMStoreTracked(t *testing.T) {
	m := buildPersistStore(true, true)
	mach, _ := run(t, m, "main")
	if n := mach.NumViolations(); n != 0 {
		t.Fatalf("violations = %d, want none", n)
	}
	addr := mach.GlobalAddr("cell")
	if got := mach.Track.DurableImage().ReadUint(addr, 8); got != 42 {
		t.Errorf("durable cell = %d, want 42", got)
	}
}

func TestPMStoreMissingFlushFence(t *testing.T) {
	m := buildPersistStore(false, false)
	mach, res := runChecked(t, m, "main")
	if n := mach.NumViolations(); n != 1 {
		t.Fatalf("violations = %d, want one", n)
	}
	if len(res.Reports) != 1 || res.Reports[0].Occurrences != 1 || res.Reports[0].Class() != pmem.MissingFlushFence {
		t.Fatalf("reports = %v, want one missing-flush&fence", res.Reports)
	}
}

func TestPMStoreMissingFence(t *testing.T) {
	m := buildPersistStore(true, false)
	mach, res := runChecked(t, m, "main")
	if n := mach.NumViolations(); n != 1 {
		t.Fatalf("violations = %d, want one", n)
	}
	if len(res.Reports) != 1 || res.Reports[0].Occurrences != 1 || res.Reports[0].Class() != pmem.MissingFence {
		t.Fatalf("reports = %v, want one missing-fence", res.Reports)
	}
}

func TestTraceRecording(t *testing.T) {
	m := buildPersistStore(true, true)
	tr := &trace.Trace{Program: "persist"}
	mach, err := New(m, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main"); err != nil {
		t.Fatal(err)
	}
	kinds := []trace.Kind{}
	for _, e := range tr.Events {
		kinds = append(kinds, e.Kind)
	}
	want := []trace.Kind{trace.KindAlloc, trace.KindStore, trace.KindFlush, trace.KindFence, trace.KindCheckpoint}
	if len(kinds) != len(want) {
		t.Fatalf("trace kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("trace kinds = %v, want %v", kinds, want)
		}
	}
	if a := tr.Events[0]; a.Sym != "cell" || a.Size != 8 {
		t.Errorf("alloc event = %+v", a)
	}
	st := tr.Events[1]
	if st.Size != 8 || len(st.Stack) != 1 || st.Stack[0].Func != "main" {
		t.Errorf("store event = %+v", st)
	}
	if st.Stack[0].Loc != (ir.Loc{File: "persist.pmc", Line: 2}) {
		t.Errorf("store loc = %v", st.Stack[0].Loc)
	}
	// The trace serializes and parses back.
	back, err := trace.ParseString(tr.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Error("serialized trace lost events")
	}
}

func TestStackTraceDepth(t *testing.T) {
	// main -> outer -> inner(store) must produce a 3-frame stack.
	m := newModule("stacks")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	inner := ir.NewFunc("inner", ir.Void)
	m.AddFunc(inner)
	{
		b := ir.NewBuilder(inner)
		b.Store(ir.I64, ir.ConstInt(1), m.Global("cell"))
		b.Ret(nil)
		inner.Renumber()
	}
	outer := ir.NewFunc("outer", ir.Void)
	m.AddFunc(outer)
	{
		b := ir.NewBuilder(outer)
		b.Call(inner)
		b.Ret(nil)
		outer.Renumber()
	}
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	{
		b := ir.NewBuilder(f)
		b.Call(outer)
		b.Ret(nil)
		f.Renumber()
	}
	tr := &trace.Trace{}
	mach, err := New(m, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main"); err != nil {
		t.Fatal(err)
	}
	st := tr.Stores()
	if len(st) != 1 {
		t.Fatalf("stores = %d", len(st))
	}
	stack := st[0].Stack
	if len(stack) != 3 {
		t.Fatalf("stack depth = %d, want 3 (%+v)", len(stack), stack)
	}
	if stack[0].Func != "inner" || stack[1].Func != "outer" || stack[2].Func != "main" {
		t.Errorf("stack = %+v", stack)
	}
	// The outer frames must reference the call instructions.
	if m.Func("outer").InstrByID(stack[1].InstrID).Op != ir.OpCall {
		t.Error("outer frame does not point at the call instruction")
	}
}

func TestBuiltinsAllocAndMemops(t *testing.T) {
	m := newModule("allocs")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	heap := b.Call(m.Func("malloc"), ir.ConstInt(64))
	pm := b.Call(m.Func("pm_alloc"), ir.ConstInt(64))
	b.Store(ir.I64, ir.ConstInt(0x11223344), heap)
	b.Call(m.Func("memcpy"), pm, heap, ir.ConstInt(16))
	b.Call(m.Func("memset"), heap, ir.ConstInt(0xFF), ir.ConstInt(8))
	v1 := b.Load(ir.I64, pm)
	v2 := b.Load(ir.I64, heap)
	// Flush + fence the PM line so no violations occur.
	b.Flush(ir.CLWB, pm)
	pm2 := b.PtrAdd(pm, ir.ConstInt(0), 0, 8)
	b.Flush(ir.CLWB, pm2)
	b.Fence(ir.SFENCE)
	sum := b.Bin(ir.OpAdd, ir.I64, v1, v2)
	b.Ret(sum)
	f.Renumber()
	mach, got := run(t, m, "main")
	var allOnes uint64 = 0xFFFFFFFFFFFFFFFF
	want := uint64(0x11223344) + allOnes
	if got != want {
		t.Errorf("main() = %#x, want %#x", got, want)
	}
	if n := mach.NumViolations(); n != 0 {
		t.Errorf("violations = %d", n)
	}
	// PM allocations are cache-line aligned.
	if a := mach.Track.DurableImage(); a == nil {
		t.Error("no durable image")
	}
}

func TestPMAllocAlignment(t *testing.T) {
	m := newModule("align")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	p1 := b.Call(m.Func("pm_alloc"), ir.ConstInt(1))
	p2 := b.Call(m.Func("pm_alloc"), ir.ConstInt(1))
	diff := b.Bin(ir.OpSub, ir.I64, b.Cast(ir.OpPtrToInt, ir.I64, p2), b.Cast(ir.OpPtrToInt, ir.I64, p1))
	b.Ret(diff)
	f.Renumber()
	_, got := run(t, m, "main")
	if got != pmem.LineSize {
		t.Errorf("pm_alloc spacing = %d, want %d (line aligned)", got, pmem.LineSize)
	}
}

func TestCheckpointBuiltin(t *testing.T) {
	// A store that is durable before the checkpoint but a second store
	// that is not: exactly one violation at the checkpoint, one more at
	// program end (same store).
	m := newModule("ckpt")
	m.AddGlobal(&ir.Global{Name: "a", Elem: ir.I64, PM: true})
	m.AddGlobal(&ir.Global{Name: "b", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.Store(ir.I64, ir.ConstInt(1), m.Global("a"))
	b.Flush(ir.CLWB, m.Global("a"))
	b.Fence(ir.SFENCE)
	b.Store(ir.I64, ir.ConstInt(2), m.Global("b"))
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	mach, res := runChecked(t, m, "main")
	if n := mach.NumViolations(); n != 2 { // once at checkpoint, once at exit
		t.Fatalf("violations = %d, want 2 (same store at two durability points)", n)
	}
	addrB := mach.GlobalAddr("b")
	if len(res.Reports) != 1 || res.Reports[0].Occurrences != 2 {
		t.Fatalf("reports = %v, want one store seen at both durability points", res.Reports)
	}
	if a := res.Reports[0].Store.Addr; a != addrB {
		t.Errorf("violation for %#x, want %#x", a, addrB)
	}
}

func TestPMGlobalInitIsDurable(t *testing.T) {
	m := newModule("pminit")
	m.AddGlobal(&ir.Global{Name: "magic", Elem: ir.I64, PM: true, Init: []byte{0xEF, 0xBE, 0, 0, 0, 0, 0, 0}})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.Ret(nil)
	f.Renumber()
	mach, _ := run(t, m, "main")
	addr := mach.GlobalAddr("magic")
	if got := mach.Track.DurableImage().ReadUint(addr, 8); got != 0xBEEF {
		t.Errorf("durable init = %#x, want 0xBEEF", got)
	}
}

func TestRestartResumesPMState(t *testing.T) {
	// Run once, persist a root object, crash-free; then restart on the
	// durable image and verify pm_root returns the same address with the
	// data intact, and pm_alloc does not hand out overlapping memory.
	build := func() *ir.Module {
		m := newModule("restart")
		f := ir.NewFunc("main", ir.I64)
		m.AddFunc(f)
		b := ir.NewBuilder(f)
		root := b.Call(m.Func("pm_root"), ir.ConstInt(64))
		b.Store(ir.I64, ir.ConstInt(777), root)
		b.Flush(ir.CLWB, root)
		b.Fence(ir.SFENCE)
		b.Ret(b.Cast(ir.OpPtrToInt, ir.I64, root))
		f.Renumber()
		return m
	}
	m1 := build()
	mach1, err := New(m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rootAddr, err := mach1.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	img := mach1.Track.DurableImage()
	// Copy the allocator metadata line (hardware-consistent, untracked).
	meta := make([]byte, pmem.LineSize)
	mach1.Mem.Read(pmem.PMBase, meta)
	img.Write(pmem.PMBase, meta)

	// Restart: read the root back.
	m2 := newModule("restart2")
	f2 := ir.NewFunc("main", ir.I64)
	m2.AddFunc(f2)
	b2 := ir.NewBuilder(f2)
	root2 := b2.Call(m2.Func("pm_root"), ir.ConstInt(64))
	fresh := b2.Call(m2.Func("pm_alloc"), ir.ConstInt(8))
	diff := b2.Bin(ir.OpSub, ir.I64, b2.Cast(ir.OpPtrToInt, ir.I64, fresh), b2.Cast(ir.OpPtrToInt, ir.I64, root2))
	ok := b2.Cmp(ir.OpGt, diff, ir.ConstInt(0))
	okWide := b2.Cast(ir.OpZExt, ir.I64, ok)
	val := b2.Load(ir.I64, root2)
	sum := b2.Bin(ir.OpAdd, ir.I64, val, okWide)
	b2.Ret(sum)
	f2.Renumber()
	mach2, err := New(m2, Options{Memory: img, ResumePM: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := mach2.Run("main")
	if err != nil {
		t.Fatal(err)
	}
	if got != 778 { // 777 from the root + 1 for fresh>root
		t.Errorf("restart main() = %d, want 778", got)
	}
	if mach2.rootAddr != rootAddr {
		t.Errorf("root moved across restart: %#x vs %#x", mach2.rootAddr, rootAddr)
	}
}

func TestRuntimeErrors(t *testing.T) {
	cases := []struct {
		name string
		prep func(m *ir.Module)
		want string
	}{
		{
			name: "null store",
			prep: func(m *ir.Module) {
				f := ir.NewFunc("main", ir.Void)
				m.AddFunc(f)
				b := ir.NewBuilder(f)
				b.Store(ir.I64, ir.ConstInt(1), ir.Null())
				b.Ret(nil)
				f.Renumber()
			},
			want: "invalid store",
		},
		{
			name: "null load",
			prep: func(m *ir.Module) {
				f := ir.NewFunc("main", ir.I64)
				m.AddFunc(f)
				b := ir.NewBuilder(f)
				b.Ret(b.Load(ir.I64, ir.Null()))
				f.Renumber()
			},
			want: "invalid load",
		},
		{
			name: "abort",
			prep: func(m *ir.Module) {
				m.AddGlobal(&ir.Global{Name: "msg", Elem: ir.Array(ir.I8, 5), Init: []byte("boom\x00")})
				f := ir.NewFunc("main", ir.Void)
				m.AddFunc(f)
				b := ir.NewBuilder(f)
				b.Call(m.Func("abort_msg"), m.Global("msg"))
				b.Ret(nil)
				f.Renumber()
			},
			want: "boom",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := newModule("err")
			c.prep(m)
			if err := ir.Verify(m); err != nil {
				t.Fatal(err)
			}
			mach, err := New(m, Options{})
			if err != nil {
				t.Fatal(err)
			}
			_, err = mach.Run("main")
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want mention of %q", err, c.want)
			}
		})
	}
}

func TestStepLimit(t *testing.T) {
	m := newModule("inf")
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	loop := b.NewBlock("loop")
	b.Jmp(loop)
	b.SetBlock(loop)
	b.Jmp(loop)
	f.Renumber()
	mach, err := New(m, Options{StepLimit: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main"); err == nil || !strings.Contains(err.Error(), "step limit") {
		t.Errorf("err = %v, want step limit", err)
	}
}

func TestPrintBuiltins(t *testing.T) {
	m := newModule("print")
	m.AddGlobal(&ir.Global{Name: "s", Elem: ir.Array(ir.I8, 3), Init: []byte("hi\x00")})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.Call(m.Func("print_int"), ir.ConstInt(-42))
	b.Call(m.Func("print_str"), m.Global("s"))
	b.Ret(nil)
	f.Renumber()
	var out strings.Builder
	mach, err := New(m, Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main"); err != nil {
		t.Fatal(err)
	}
	if out.String() != "-42\nhi\n" {
		t.Errorf("stdout = %q", out.String())
	}
}

func TestSimTimeAdvances(t *testing.T) {
	m := buildPersistStore(true, true)
	mach, _ := run(t, m, "main")
	if mach.SimTime() <= 0 {
		t.Error("simulated clock did not advance")
	}
	if mach.Steps() == 0 {
		t.Error("step counter did not advance")
	}
	// A fenced flush must cost more than the bare store sequence.
	m2 := buildPersistStore(false, false)
	mach2, _ := run(t, m2, "main")
	if mach.SimTime() <= mach2.SimTime() {
		t.Errorf("flush+fence (%v ns) should cost more than bare store (%v ns)",
			mach.SimTime(), mach2.SimTime())
	}
}

func TestMemcpyChunkingNeverSpansLines(t *testing.T) {
	// memcpy of 200 bytes at an unaligned PM offset must produce chunked
	// store events that the tracker accepts (it panics on line-spanning
	// stores) and that cover every byte.
	m := newModule("chunks")
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	pm := b.Call(m.Func("pm_alloc"), ir.ConstInt(256))
	heap := b.Call(m.Func("malloc"), ir.ConstInt(256))
	b.Call(m.Func("memset"), heap, ir.ConstInt(0xAB), ir.ConstInt(200))
	dst := b.PtrAdd(pm, ir.ConstInt(0), 0, 3) // unaligned
	b.Call(m.Func("memcpy"), dst, heap, ir.ConstInt(200))
	b.Ret(nil)
	f.Renumber()
	tr := &trace.Trace{}
	mach, err := New(m, Options{Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("main"); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, e := range tr.Stores() {
		total += e.Size
		if pmem.LineOf(e.Addr) != pmem.LineOf(e.Addr+uint64(e.Size)-1) {
			t.Errorf("store event spans lines: %+v", e)
		}
	}
	if total != 200 {
		t.Errorf("chunked stores cover %d bytes, want 200", total)
	}
}

func TestCrashAtCheckpoint(t *testing.T) {
	// Two explicit durability points plus the implicit one at exit.
	m := newModule("crash")
	m.AddGlobal(&ir.Global{Name: "a", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	g := m.Global("a")
	b.Store(ir.I64, ir.ConstInt(1), g)
	b.Flush(ir.CLWB, g)
	b.Fence(ir.SFENCE)
	b.Call(m.Func("pm_checkpoint"))
	b.Store(ir.I64, ir.ConstInt(2), g)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()

	// Crash at the first checkpoint: only the first store is durable.
	mach, err := New(m, Options{CrashAtCheckpoint: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = mach.Run("main")
	if err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("err = %v, want simulated crash", err)
	}
	if mach.Checkpoints() != 1 {
		t.Errorf("checkpoints = %d, want 1", mach.Checkpoints())
	}
	img := mach.CrashImage(nil)
	if got := img.ReadUint(mach.GlobalAddr("a"), 8); got != 1 {
		t.Errorf("crashed image a = %d, want 1", got)
	}

	// Crash at the second: the unflushed second store is lost.
	mach2, err := New(m, Options{CrashAtCheckpoint: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach2.Run("main"); err == nil {
		t.Fatal("expected crash at checkpoint 2")
	}
	if got := mach2.CrashImage(nil).ReadUint(mach2.GlobalAddr("a"), 8); got != 1 {
		t.Errorf("crashed image a = %d, want 1 (second store volatile)", got)
	}
	// Eager eviction may land the second store.
	all := mach2.CrashImage(func(*pmem.TrackedStore) bool { return true })
	if got := all.ReadUint(mach2.GlobalAddr("a"), 8); got != 2 {
		t.Errorf("evicted image a = %d, want 2", got)
	}

	// No crash configured: the run completes, counting all 3 points.
	mach3, err := New(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach3.Run("main"); err != nil {
		t.Fatal(err)
	}
	if mach3.Checkpoints() != 3 {
		t.Errorf("checkpoints = %d, want 3 (two explicit + exit)", mach3.Checkpoints())
	}
}

func TestFlushRangeBuiltin(t *testing.T) {
	m := newModule("flushrange")
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	pm := b.Call(m.Func("pm_alloc"), ir.ConstInt(256))
	heap := b.Call(m.Func("malloc"), ir.ConstInt(256))
	b.Call(m.Func("memset"), pm, ir.ConstInt(5), ir.ConstInt(200))
	b.Call(m.Func("flush_range"), pm, ir.ConstInt(200))
	// Flushing volatile memory is harmless (and costs only issue time).
	b.Call(m.Func("flush_range"), heap, ir.ConstInt(200))
	b.Fence(ir.SFENCE)
	b.Ret(nil)
	f.Renumber()
	mach, _ := run(t, m, "main")
	if n := mach.NumViolations(); n != 0 {
		t.Errorf("violations = %d after flush_range+fence", n)
	}
	if mach.Track.NumPending() != 0 {
		t.Errorf("pending = %d", mach.Track.NumPending())
	}
}

// TestPMBuiltinsUntracked: memcpy, memset and flush_range on PM behave the
// same with durability tracking off (as in crash-recovery boots) as with
// it on.
func TestPMBuiltinsUntracked(t *testing.T) {
	m := newModule("memops")
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	pm := b.Call(m.Func("pm_alloc"), ir.ConstInt(128))
	heap := b.Call(m.Func("malloc"), ir.ConstInt(16))
	b.Store(ir.I64, ir.ConstInt(0x1122334455667788), heap)
	b.Call(m.Func("memset"), pm, ir.ConstInt(0xAB), ir.ConstInt(100))
	b.Call(m.Func("memcpy"), b.PtrAdd(pm, ir.ConstInt(0), 0, 120), heap, ir.ConstInt(8))
	b.Call(m.Func("flush_range"), pm, ir.ConstInt(128))
	b.Fence(ir.SFENCE)
	b.Ret(b.Load(ir.I64, b.PtrAdd(pm, ir.ConstInt(0), 0, 120)))
	f.Renumber()
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
	var mems []*pmem.Memory
	for _, noTrack := range []bool{false, true} {
		mach, err := New(m, Options{NoTrack: noTrack})
		if err != nil {
			t.Fatal(err)
		}
		ret, err := mach.Run("main")
		if err != nil {
			t.Fatalf("NoTrack=%v: %v", noTrack, err)
		}
		if ret != 0x1122334455667788 {
			t.Errorf("NoTrack=%v: main() = %#x", noTrack, ret)
		}
		mems = append(mems, mach.Mem)
	}
	if !pmem.EqualRange(mems[0], mems[1], pmem.PMBase, 4096) {
		t.Error("untracked run left different PM contents than the tracked run")
	}
}

func TestStackReuseAcrossCalls(t *testing.T) {
	// A function that allocates a big frame must not leak stack across
	// thousands of sequential calls (regression: frames without allocas
	// once wedged the watermark).
	m := newModule("stackreuse")
	noalloc := ir.NewFunc("noalloc", ir.Void)
	m.AddFunc(noalloc)
	{
		b := ir.NewBuilder(noalloc)
		b.Ret(nil)
		noalloc.Renumber()
	}
	big := ir.NewFunc("big", ir.I64)
	m.AddFunc(big)
	{
		b := ir.NewBuilder(big)
		b.Call(noalloc)
		buf := b.Alloca(ir.Array(ir.I64, 1024))
		b.Store(ir.I64, ir.ConstInt(9), buf)
		b.Ret(b.Load(ir.I64, buf))
		big.Renumber()
	}
	f := ir.NewFunc("main", ir.I64)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	acc := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), acc)
	i := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), i)
	cond := b.NewBlock("cond")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jmp(cond)
	b.SetBlock(cond)
	iv := b.Load(ir.I64, i)
	c := b.Cmp(ir.OpLt, iv, ir.ConstInt(5000))
	b.Br(c, body, exit)
	b.SetBlock(body)
	v := b.Call(big)
	av := b.Load(ir.I64, acc)
	b.Store(ir.I64, b.Bin(ir.OpAdd, ir.I64, av, v), acc)
	b.Store(ir.I64, b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1)), i)
	b.Jmp(cond)
	b.SetBlock(exit)
	b.Ret(b.Load(ir.I64, acc))
	f.Renumber()
	_, got := run(t, m, "main")
	if got != 9*5000 {
		t.Errorf("main() = %d, want %d", got, 9*5000)
	}
}

func TestMachinesShareModulesReadOnly(t *testing.T) {
	// Several machines may execute the same module concurrently (the
	// Fig. 4 harness runs one per build in parallel); execution must not
	// mutate shared module state. Run with -race to enforce.
	m := buildPersistStore(true, true)
	// One Renumber up front leaves the module clean; concurrent New()
	// calls then perform no writes.
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			f.Renumber()
		}
	}
	done := make(chan error, 4)
	for i := 0; i < 4; i++ {
		go func() {
			mach, err := New(m, Options{})
			if err != nil {
				done <- err
				return
			}
			_, err = mach.Run("main")
			done <- err
		}()
	}
	for i := 0; i < 4; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
