package core

import (
	"strings"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

func newModule(name string) *ir.Module {
	m := ir.NewModule(name)
	for _, d := range interp.StdDecls() {
		m.AddFunc(d)
	}
	return m
}

// runModule executes and returns (stdout, simulated ns, violations).
func runModule(t *testing.T, m *ir.Module, entry string, args ...uint64) (string, float64, int) {
	t.Helper()
	var out strings.Builder
	mach, err := interp.New(m, interp.Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run(entry, args...); err != nil {
		t.Fatalf("run @%s: %v", entry, err)
	}
	return out.String(), mach.SimTime(), mach.NumViolations()
}

// buildListing1 is the paper's Listing 1: an intraprocedural
// missing-flush&fence bug (store, then a durability point, in one
// function).
func buildListing1() *ir.Module {
	m := newModule("listing1")
	m.AddGlobal(&ir.Global{Name: "oid", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.SetLoc(ir.Loc{File: "listing1.pmc", Line: 2})
	b.Store(ir.I64, ir.ConstInt(0), m.Global("oid"))
	b.SetLoc(ir.Loc{File: "listing1.pmc", Line: 6})
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	return m
}

// buildListing3 is the paper's Listing 3: store + CLWB but no fence.
func buildListing3() *ir.Module {
	m := newModule("listing3")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	g := m.Global("cell")
	b.Store(ir.I64, ir.ConstInt(7), g)
	b.Flush(ir.CLWB, g)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	return m
}

// buildListing4 is the paper's Listing 4: store + SFENCE but no flush.
func buildListing4() *ir.Module {
	m := newModule("listing4")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.Store(ir.I64, ir.ConstInt(7), m.Global("cell"))
	b.Fence(ir.SFENCE)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	return m
}

// buildListing5 is the paper's Listing 5/6 interprocedural scenario:
//
//	update(addr, i, val): addr[i] = val            (no flush)
//	modify(addr):         update(addr, 0, 1)
//	main():               v := malloc; p := pm_alloc
//	                      loop N: modify(v)
//	                      modify(p); sfence; checkpoint
//
// The durability bug is a missing flush (a fence exists); the optimal fix
// hoists to main's modify(p) call site.
func buildListing5(loopN int64) *ir.Module {
	m := newModule("listing5")
	update := ir.NewFunc("update", ir.Void,
		&ir.Param{Name: "addr", Ty: ir.Ptr},
		&ir.Param{Name: "i", Ty: ir.I64},
		&ir.Param{Name: "val", Ty: ir.I64})
	m.AddFunc(update)
	{
		b := ir.NewBuilder(update)
		b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 2})
		slot := b.PtrAdd(update.Params[0], update.Params[1], 8, 0)
		b.Store(ir.I64, update.Params[2], slot)
		b.Ret(nil)
		update.Renumber()
	}
	modify := ir.NewFunc("modify", ir.Void, &ir.Param{Name: "addr", Ty: ir.Ptr})
	m.AddFunc(modify)
	{
		b := ir.NewBuilder(modify)
		b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 5})
		b.Call(update, modify.Params[0], ir.ConstInt(0), ir.ConstInt(1))
		b.Ret(nil)
		modify.Renumber()
	}
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 17})
	v := b.Call(m.Func("malloc"), ir.ConstInt(8))
	p := b.Call(m.Func("pm_alloc"), ir.ConstInt(8))
	i := b.Alloca(ir.I64)
	b.Store(ir.I64, ir.ConstInt(0), i)
	cond := b.NewBlock("cond")
	body := b.NewBlock("body")
	exit := b.NewBlock("exit")
	b.Jmp(cond)
	b.SetBlock(cond)
	iv := b.Load(ir.I64, i)
	c := b.Cmp(ir.OpLt, iv, ir.ConstInt(loopN))
	b.Br(c, body, exit)
	b.SetBlock(body)
	b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 18})
	b.Call(modify, v)
	b.Store(ir.I64, b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1)), i)
	b.Jmp(cond)
	b.SetBlock(exit)
	b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 19})
	b.Call(modify, p)
	b.SetLoc(ir.Loc{File: "listing5.pmc", Line: 22})
	b.Fence(ir.SFENCE)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	return m
}

func TestFixListing1FlushFence(t *testing.T) {
	m := buildListing1()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Before.Clean() {
		t.Fatal("expected a bug before repair")
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if len(res.Fix.Fixes) != 1 || res.Fix.Fixes[0].Kind != FixIntraFlushFence {
		t.Fatalf("fixes = %+v", res.Fix.Fixes)
	}
	// The inserted flush must target the store's own operand and the
	// fence must follow it.
	f := m.Func("main")
	ops := []ir.Op{}
	for _, in := range f.Entry().Instrs {
		ops = append(ops, in.Op)
	}
	text := ir.Print(m)
	if !strings.Contains(text, "flush clwb, ptr @oid") {
		t.Errorf("missing flush of @oid:\n%s", text)
	}
	if !strings.Contains(text, "fence sfence") {
		t.Errorf("missing fence:\n%s", text)
	}
	wantPrefix := []ir.Op{ir.OpStore, ir.OpFlush, ir.OpFence}
	for i, op := range wantPrefix {
		if ops[i] != op {
			t.Fatalf("instruction order = %v, want prefix %v", ops, wantPrefix)
		}
	}
}

func TestFixListing3MissingFence(t *testing.T) {
	m := buildListing3()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if len(res.Fix.Fixes) != 1 || res.Fix.Fixes[0].Kind != FixIntraFence {
		t.Fatalf("fixes = %+v", res.Fix.Fixes[0])
	}
	// The fence must be inserted after the existing flush.
	instrs := m.Func("main").Entry().Instrs
	for i, in := range instrs {
		if in.Op == ir.OpFlush {
			if instrs[i+1].Op != ir.OpFence {
				t.Error("fence not placed after the existing flush")
			}
		}
	}
}

func TestFixListing4MissingFlush(t *testing.T) {
	m := buildListing4()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if len(res.Fix.Fixes) != 1 || res.Fix.Fixes[0].Kind != FixIntraFlush {
		t.Fatalf("fixes = %+v", res.Fix.Fixes[0])
	}
	// Flush inserted directly after the store, before the existing fence.
	instrs := m.Func("main").Entry().Instrs
	if instrs[0].Op != ir.OpStore || instrs[1].Op != ir.OpFlush || instrs[2].Op != ir.OpFence {
		t.Errorf("instruction order wrong: %s", ir.Print(m))
	}
}

func TestFixListing5Interprocedural(t *testing.T) {
	m := buildListing5(10)
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if len(res.Fix.Fixes) != 1 {
		t.Fatalf("fixes = %d", len(res.Fix.Fixes))
	}
	fix := res.Fix.Fixes[0]
	if fix.Kind != FixInterproc {
		t.Fatalf("fix kind = %v, want interprocedural", fix.Kind)
	}
	if fix.HoistDepth != 2 {
		t.Errorf("hoist depth = %d, want 2 (call site in main)", fix.HoistDepth)
	}
	// The persistent subprograms must exist and be used only on the PM
	// path; the originals stay flush-free for the volatile loop.
	if m.Func("modify__pm") == nil || m.Func("update__pm") == nil {
		t.Fatalf("persistent subprograms missing:\n%s", ir.Print(m))
	}
	for _, b := range m.Func("update").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFlush {
				t.Error("original update gained a flush; volatile path would pay for it")
			}
		}
	}
	foundFlush := false
	for _, b := range m.Func("update__pm").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpFlush {
				foundFlush = true
			}
		}
	}
	if !foundFlush {
		t.Error("update__pm lacks the inserted flush")
	}
	if res.Fix.ClonesCreated != 2 {
		t.Errorf("clones = %d, want 2 (modify__pm, update__pm)", res.Fix.ClonesCreated)
	}
}

func TestHoistingDisabledGivesIntraproceduralFix(t *testing.T) {
	m := buildListing5(10)
	res, err := RunAndRepair(m, "main", Options{DisableHoisting: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if res.Fix.Fixes[0].Kind != FixIntraFlush {
		t.Fatalf("fix kind = %v, want intraprocedural flush", res.Fix.Fixes[0].Kind)
	}
	if m.Func("modify__pm") != nil {
		t.Error("hoisting disabled but clone created")
	}
}

func TestInterproceduralFixIsFaster(t *testing.T) {
	// The Fig. 4 mechanism: with a hot volatile loop, the hoisted fix
	// must be dramatically cheaper than the intraprocedural one, because
	// the intraprocedural flush executes on every volatile iteration.
	const n = 1000
	mIntra := buildListing5(n)
	if _, err := RunAndRepair(mIntra, "main", Options{DisableHoisting: true}); err != nil {
		t.Fatal(err)
	}
	mFull := buildListing5(n)
	if _, err := RunAndRepair(mFull, "main", Options{}); err != nil {
		t.Fatal(err)
	}
	_, tIntra, _ := runModule(t, mIntra, "main")
	_, tFull, _ := runModule(t, mFull, "main")
	if tFull >= tIntra {
		t.Fatalf("hoisted fix (%.0f ns) not faster than intraprocedural (%.0f ns)", tFull, tIntra)
	}
	if ratio := tIntra / tFull; ratio < 2 {
		t.Errorf("speedup = %.2fx, want >= 2x for a hot volatile loop", ratio)
	}
}

func TestFullAAAndTraceAAProduceSameFixes(t *testing.T) {
	// §6.1: both marking strategies must produce identical fixed binaries.
	for _, build := range []func() *ir.Module{
		buildListing1, buildListing3, buildListing4,
		func() *ir.Module { return buildListing5(10) },
	} {
		mFull := build()
		if _, err := RunAndRepair(mFull, "main", Options{Marks: FullAA}); err != nil {
			t.Fatal(err)
		}
		mTrace := build()
		if _, err := RunAndRepair(mTrace, "main", Options{Marks: TraceAA}); err != nil {
			t.Fatal(err)
		}
		if ir.Print(mFull) != ir.Print(mTrace) {
			t.Errorf("%s: full-aa and trace-aa fixes differ:\n%s\n----\n%s",
				mFull.Name, ir.Print(mFull), ir.Print(mTrace))
		}
	}
}

func TestDoNoHarmOutputsUnchanged(t *testing.T) {
	// Fixed programs must produce the same observable output as the
	// original (fixes only add memory orderings).
	build := func() *ir.Module {
		m := buildListing5(25)
		// Add output so there is something observable: print the PM cell.
		f := m.Func("main")
		exit := f.Blocks[len(f.Blocks)-1]
		// main's %t1 is the pm_alloc result; find it.
		var pmPtr ir.Value
		for _, in := range f.Entry().Instrs {
			if in.Op == ir.OpCall && in.Callee().Name == "pm_alloc" {
				pmPtr = in
			}
		}
		ld := &ir.Instr{Op: ir.OpLoad, Name: "final", Ty: ir.I64, Args: []ir.Value{pmPtr}}
		exit.InsertBefore(exit.Terminator(), ld)
		pr := &ir.Instr{Op: ir.OpCall, Ty: ir.Void, Args: []ir.Value{ld}}
		pr.SetCallee(m.Func("print_int"))
		exit.InsertBefore(exit.Terminator(), pr)
		f.Renumber()
		return m
	}
	orig := build()
	outOrig, _, violOrig := runModule(t, orig, "main")
	if violOrig == 0 {
		t.Fatal("original should violate durability")
	}
	fixed := build()
	if _, err := RunAndRepair(fixed, "main", Options{}); err != nil {
		t.Fatal(err)
	}
	outFixed, _, violFixed := runModule(t, fixed, "main")
	if outFixed != outOrig {
		t.Errorf("output changed: %q -> %q", outOrig, outFixed)
	}
	if violFixed != 0 {
		t.Errorf("fixed program still violates: %d", violFixed)
	}
}

func TestCloneReuseAcrossFixes(t *testing.T) {
	// Two distinct buggy stores reached through the same helper: the
	// persistent subprogram is created once and reused (§4.2.4).
	m := newModule("reuse")
	setk := ir.NewFunc("setk", ir.Void, &ir.Param{Name: "p", Ty: ir.Ptr}, &ir.Param{Name: "v", Ty: ir.I64})
	m.AddFunc(setk)
	{
		b := ir.NewBuilder(setk)
		b.Store(ir.I64, setk.Params[1], setk.Params[0])
		b.Ret(nil)
		setk.Renumber()
	}
	mkA := ir.NewFunc("storeA", ir.Void, &ir.Param{Name: "p", Ty: ir.Ptr})
	m.AddFunc(mkA)
	{
		b := ir.NewBuilder(mkA)
		b.Call(setk, mkA.Params[0], ir.ConstInt(1))
		b.Ret(nil)
		mkA.Renumber()
	}
	mkB := ir.NewFunc("storeB", ir.Void, &ir.Param{Name: "p", Ty: ir.Ptr})
	m.AddFunc(mkB)
	{
		b := ir.NewBuilder(mkB)
		slot := b.PtrAdd(mkB.Params[0], ir.ConstInt(1), 8, 0)
		b.Call(setk, slot, ir.ConstInt(2))
		b.Ret(nil)
		mkB.Renumber()
	}
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	p := b.Call(m.Func("pm_alloc"), ir.ConstInt(16))
	// A volatile user of setk so the hoist is worthwhile.
	v := b.Call(m.Func("malloc"), ir.ConstInt(16))
	b.Call(setk, v, ir.ConstInt(9))
	b.Call(mkA, p)
	b.Call(mkB, p)
	b.Fence(ir.SFENCE)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()

	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if got := res.Fix.InterprocFixes(); got != 2 {
		t.Fatalf("interprocedural fixes = %d, want 2 (fixes: %v)", got, res.Fix.Fixes)
	}
	// setk__pm must exist exactly once (reused by both clones).
	if m.Func("setk__pm") == nil {
		t.Fatal("setk__pm missing")
	}
	if m.Func("setk__pm2") != nil {
		t.Error("setk cloned twice; reuse broken")
	}
}

func TestMemcpyBulkFix(t *testing.T) {
	// A builtin memcpy into PM produces multi-chunk store events; the fix
	// must flush the whole range (flush_range) and fence.
	m := newModule("bulk")
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	p := b.Call(m.Func("pm_alloc"), ir.ConstInt(256))
	h := b.Call(m.Func("malloc"), ir.ConstInt(256))
	b.Call(m.Func("memset"), h, ir.ConstInt(7), ir.ConstInt(200))
	b.Call(m.Func("memcpy"), p, h, ir.ConstInt(200))
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if !strings.Contains(ir.Print(m), "call @flush_range") {
		t.Errorf("expected a flush_range fix:\n%s", ir.Print(m))
	}
}

func TestFixReductionMergesDuplicates(t *testing.T) {
	// Two stores to the same line in sequence, both buggy: the second
	// store's flush makes the first's fence adjacent — reduction must
	// elide at least one duplicate mechanism rather than stacking
	// flush/fence pairs blindly. We assert on the count of inserted
	// instructions: 2 stores need at most 2 flushes + 1 shared fence...
	// but intraprocedural fixes are per-store, so what reduction
	// guarantees here is: no *adjacent duplicate* fences.
	m := newModule("reduce")
	m.AddGlobal(&ir.Global{Name: "a", Elem: ir.Array(ir.I64, 2), PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	g := m.Global("a")
	b.Store(ir.I64, ir.ConstInt(1), g)
	p2 := b.PtrAdd(g, ir.ConstInt(1), 8, 0)
	b.Store(ir.I64, ir.ConstInt(2), p2)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	// No two adjacent fences anywhere.
	for _, fn := range m.Funcs {
		for _, blk := range fn.Blocks {
			for i := 1; i < len(blk.Instrs); i++ {
				if blk.Instrs[i].Op == ir.OpFence && blk.Instrs[i-1].Op == ir.OpFence {
					t.Errorf("adjacent duplicate fences in @%s:\n%s", fn.Name, ir.Print(m))
				}
			}
		}
	}
	if res.Fix.ReducedFixes == 0 {
		t.Error("expected at least one reduced fix")
	}
}

func TestRepairIsIdempotentOnCleanModule(t *testing.T) {
	m := buildListing1()
	if _, err := RunAndRepair(m, "main", Options{}); err != nil {
		t.Fatal(err)
	}
	before := ir.Print(m)
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fix != nil {
		t.Error("clean module should need no fixes")
	}
	if ir.Print(m) != before {
		t.Error("repairing a clean module changed it")
	}
}

func TestInstrsAddedAccounting(t *testing.T) {
	m := buildListing5(10)
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	fx := res.Fix
	if fx.InstrsAfter <= fx.InstrsBefore {
		t.Errorf("instr counts: before=%d after=%d", fx.InstrsBefore, fx.InstrsAfter)
	}
	if fx.MarksName != "full-aa" {
		t.Errorf("marks = %q", fx.MarksName)
	}
}

func TestSharedActivations(t *testing.T) {
	fr := func(fn string, id int) trace.Frame { return trace.Frame{Func: fn, InstrID: id} }
	cases := []struct {
		name        string
		store, ckpt []trace.Frame
		want        int
	}{
		{
			name:  "checkpoint in same function as store",
			store: []trace.Frame{fr("foo", 2)},
			ckpt:  []trace.Frame{fr("foo", 7)},
			want:  1,
		},
		{
			name:  "listing5",
			store: []trace.Frame{fr("update", 1), fr("modify", 0), fr("foo", 19)},
			ckpt:  []trace.Frame{fr("foo", 23)},
			want:  1,
		},
		{
			name:  "checkpoint deeper in a sibling",
			store: []trace.Frame{fr("update", 1), fr("modify", 0), fr("foo", 19)},
			ckpt:  []trace.Frame{fr("sync", 3), fr("foo", 23)},
			want:  1,
		},
		{
			name:  "checkpoint inside modify",
			store: []trace.Frame{fr("update", 1), fr("modify", 0), fr("foo", 19)},
			ckpt:  []trace.Frame{fr("modify", 4), fr("foo", 19)},
			want:  2,
		},
		{
			name:  "end of program",
			store: []trace.Frame{fr("update", 1), fr("main", 3)},
			ckpt:  nil,
			want:  0,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := sharedActivations(c.store, c.ckpt); got != c.want {
				t.Errorf("sharedActivations = %d, want %d", got, c.want)
			}
		})
	}
}

func TestCheckpointInsideCalleeLimitsHoist(t *testing.T) {
	// The durability point lives inside modify (after the update call):
	// transforming modify would put its fence after the checkpoint, so
	// the heuristic must not hoist past update.
	m := newModule("limit")
	update := ir.NewFunc("update", ir.Void, &ir.Param{Name: "p", Ty: ir.Ptr})
	m.AddFunc(update)
	{
		b := ir.NewBuilder(update)
		b.Store(ir.I64, ir.ConstInt(1), update.Params[0])
		b.Ret(nil)
		update.Renumber()
	}
	modify := ir.NewFunc("modify", ir.Void, &ir.Param{Name: "p", Ty: ir.Ptr})
	m.AddFunc(modify)
	{
		b := ir.NewBuilder(modify)
		b.Call(update, modify.Params[0])
		b.Fence(ir.SFENCE)
		b.Call(m.Func("pm_checkpoint"))
		b.Ret(nil)
		modify.Renumber()
	}
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	p := b.Call(m.Func("pm_alloc"), ir.ConstInt(8))
	b.Call(modify, p)
	b.Ret(nil)
	f.Renumber()

	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	fix := res.Fix.Fixes[0]
	if fix.Kind.Interprocedural() && fix.HoistDepth > 1 {
		t.Errorf("hoisted past the durability point: %+v", fix)
	}
	if m.Func("modify__pm") != nil {
		t.Error("modify was transformed although the durability point is inside it")
	}
}

func TestArgumentlessCallSiteStopsHoisting(t *testing.T) {
	// §4.3: call sites that pass no (pointer) arguments score −∞, as do
	// their parents — PM is reached via a global.
	m := newModule("noargs")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	writer := ir.NewFunc("writer", ir.Void)
	m.AddFunc(writer)
	{
		b := ir.NewBuilder(writer)
		b.Store(ir.I64, ir.ConstInt(3), m.Global("cell"))
		b.Ret(nil)
		writer.Renumber()
	}
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.Call(writer)
	b.Call(m.Func("pm_checkpoint"))
	b.Ret(nil)
	f.Renumber()
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Fixed() {
		t.Fatalf("not fixed: %s", res.After.Summary())
	}
	if res.Fix.Fixes[0].Kind.Interprocedural() {
		t.Error("hoisted through an argument-less call site")
	}
}

func TestDurableBytesNeverShrink(t *testing.T) {
	// Property: the fixed program's durable image contains everything
	// the original's did (fixes only add durability).
	build := func() *ir.Module { return buildListing5(5) }
	orig := build()
	machO, err := interp.New(orig, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machO.Run("main"); err != nil {
		t.Fatal(err)
	}
	fixed := build()
	if _, err := RunAndRepair(fixed, "main", Options{}); err != nil {
		t.Fatal(err)
	}
	machF, err := interp.New(fixed, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := machF.Run("main"); err != nil {
		t.Fatal(err)
	}
	if machF.Track.DurableStores < machO.Track.DurableStores {
		t.Errorf("durable stores shrank: %d -> %d", machO.Track.DurableStores, machF.Track.DurableStores)
	}
	if machF.Track.NumPending() != 0 {
		t.Errorf("fixed program left %d pending stores", machF.Track.NumPending())
	}
}

func TestFixStringsAndKinds(t *testing.T) {
	m := buildListing5(10)
	res, err := RunAndRepair(m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Fix.Fixes[0].String()
	if !strings.Contains(s, "interprocedural") || !strings.Contains(s, "hoisted") {
		t.Errorf("fix string = %q", s)
	}
	for k := FixIntraFlush; k <= FixInterproc; k++ {
		if strings.Contains(k.String(), "fixkind") {
			t.Errorf("missing name for kind %d", int(k))
		}
	}
	_ = pmem.LineSize // keep import stable if assertions change
	_ = pmcheck.SiteKey{}
}

// buildHotLoop stores to one PM location and hits a durability point on
// every iteration: one static bug observed N times dynamically.
func buildHotLoop(n int64) *ir.Module {
	m := newModule("hotloop")
	m.AddGlobal(&ir.Global{Name: "cell", Elem: ir.I64, PM: true})
	f := ir.NewFunc("main", ir.Void)
	m.AddFunc(f)
	b := ir.NewBuilder(f)
	b.SetLoc(ir.Loc{File: "hotloop.pmc", Line: 2})
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
	b.SetLoc(ir.Loc{File: "hotloop.pmc", Line: 4})
	b.Store(ir.I64, iv, m.Global("cell"))
	b.Call(m.Func("pm_checkpoint"))
	b.Store(ir.I64, b.Bin(ir.OpAdd, ir.I64, iv, ir.ConstInt(1)), i)
	b.Jmp(cond)
	b.SetBlock(exit)
	b.Ret(nil)
	f.Renumber()
	return m
}

// TestHotLoopDuplicateReportsFixedOnce is the dedupe regression: a store in
// a hot loop violates at every iteration, and several detector passes worth
// of reports, merged by pmcheck.DedupeByClass as a report-combining caller
// (UnionCheck) merges them, must still produce exactly one fix — not one
// flush/fence pair per observation.
func TestHotLoopDuplicateReportsFixedOnce(t *testing.T) {
	const iters = 10
	m := buildHotLoop(iters)
	run, err := TraceAndCheck(nil, m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace
	res := checkTrace(tr)
	// iters violations at the in-loop checkpoint plus one more for the
	// final store at the end-of-program durability point.
	if len(res.Reports) != 1 || res.Reports[0].Occurrences != iters+1 {
		t.Fatalf("reports = %+v, want one with %d occurrences", res.Reports, iters+1)
	}

	// Three detector passes over the same trace: 3x duplicate reports.
	combined := append(append(checkTrace(tr).Reports, checkTrace(tr).Reports...), res.Reports...)
	merged := pmcheck.DedupeByClass(combined)
	if len(merged) != 1 {
		t.Fatalf("merged reports = %d, want 1", len(merged))
	}
	fx := NewFixer(m, tr, Options{})
	if err := fx.Apply(merged); err != nil {
		t.Fatal(err)
	}
	if got := len(fx.Result().Fixes); got != 1 {
		t.Fatalf("fixes = %d, want 1 (duplicates merged before planning)", got)
	}

	tr2Run, err := TraceAndCheck(nil, m, "main", Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr2 := tr2Run.Trace
	after := checkTrace(tr2)
	if !after.Clean() {
		t.Fatalf("not clean after repair:\n%s", after.Summary())
	}
	// One flush and one fence per iteration suffice: duplicate-driven
	// double insertion would show up as redundant-flush diagnostics.
	if n := len(after.RedundantFlushes); n != 0 {
		t.Errorf("redundant flushes after repair = %d, want 0", n)
	}
	if err := ir.Verify(m); err != nil {
		t.Fatal(err)
	}
}

// TestResolveFrames pins the fixer's instruction index to the per-function
// maps it replaced: frames resolve by (function, ID); in a function edited
// since Renumber the later of two instructions with one ID wins (an
// inserted one sits at ID 0); and an ID out of range, or a function that
// is missing or only declared, resolves to nil, as a loaded trace may ask.
func TestResolveFrames(t *testing.T) {
	m := newModule("resolve")
	f := m.AddFunc(ir.NewFunc("f", ir.Void))
	b := ir.NewBuilder(f)
	slot := b.Alloca(ir.I64)
	st := b.Store(ir.I64, ir.ConstInt(1), slot)
	ret := b.Ret(nil)
	f.Renumber()
	fx := &Fixer{index: indexInstrs(m)}
	for id, want := range []*ir.Instr{slot, st, ret} {
		if got := fx.resolve(trace.Frame{Func: "f", InstrID: id}); got != want {
			t.Errorf("ID %d resolves to %v, want %s", id, got, ir.FormatInstr(want))
		}
	}

	fence := &ir.Instr{Op: ir.OpFence, Ty: ir.Void, FenceK: ir.SFENCE}
	f.Entry().InsertAfter(st, fence) // dirty: the fence keeps ID 0
	fx = &Fixer{index: indexInstrs(m)}
	for id, want := range []*ir.Instr{fence, st, ret} {
		if got := fx.resolve(trace.Frame{Func: "f", InstrID: id}); got != want {
			t.Errorf("dirty: ID %d resolves to %v, want %s", id, got, ir.FormatInstr(want))
		}
	}
	for _, fr := range []trace.Frame{
		{Func: "f", InstrID: -1},
		{Func: "f", InstrID: 3},
		{Func: "f", InstrID: 1 << 40},
		{Func: "nope", InstrID: 0},
		{Func: "pm_checkpoint", InstrID: 0},
	} {
		if got := fx.resolve(fr); got != nil {
			t.Errorf("%s#%d resolves to %s, want nil", fr.Func, fr.InstrID, ir.FormatInstr(got))
		}
	}
}
