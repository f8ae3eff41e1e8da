package ir

import (
	"strings"
	"testing"
	"unsafe"
)

func TestBasicTypeSizes(t *testing.T) {
	cases := []struct {
		ty    Type
		size  int64
		align int64
	}{
		{Void, 0, 1},
		{I1, 1, 1},
		{I8, 1, 1},
		{I64, 8, 8},
		{Ptr, 8, 8},
		{Array(I64, 10), 80, 8},
		{Array(I8, 3), 3, 1},
		{Array(Array(I8, 4), 2), 8, 1},
	}
	for _, c := range cases {
		if got := c.ty.Size(); got != c.size {
			t.Errorf("%s: size = %d, want %d", c.ty, got, c.size)
		}
		if got := c.ty.Align(); got != c.align {
			t.Errorf("%s: align = %d, want %d", c.ty, got, c.align)
		}
	}
}

func TestStructLayout(t *testing.T) {
	st := NewStruct("Node", []Field{
		{Name: "tag", Type: I8},
		{Name: "key", Type: I64},
		{Name: "c", Type: I8},
		{Name: "next", Type: Ptr},
	})
	wantOffsets := []int64{0, 8, 16, 24}
	for i, f := range st.Fields {
		if f.Offset != wantOffsets[i] {
			t.Errorf("field %s offset = %d, want %d", f.Name, f.Offset, wantOffsets[i])
		}
	}
	if st.Size() != 32 {
		t.Errorf("size = %d, want 32", st.Size())
	}
	if st.Align() != 8 {
		t.Errorf("align = %d, want 8", st.Align())
	}
	if f := st.FieldByName("key"); f == nil || f.Offset != 8 {
		t.Errorf("FieldByName(key) = %+v", f)
	}
	if f := st.FieldByName("missing"); f != nil {
		t.Errorf("FieldByName(missing) = %+v, want nil", f)
	}
}

func TestStructLayoutPacked(t *testing.T) {
	st := NewStruct("Bytes", []Field{
		{Name: "a", Type: I8},
		{Name: "b", Type: I8},
		{Name: "c", Type: I8},
	})
	if st.Size() != 3 || st.Align() != 1 {
		t.Errorf("size/align = %d/%d, want 3/1", st.Size(), st.Align())
	}
}

// buildSample constructs a module exercising every opcode.
func buildSample(t testing.TB) *Module {
	m := NewModule("sample")
	node := m.AddStruct(NewStruct("Node", []Field{
		{Name: "key", Type: I64},
		{Name: "next", Type: Ptr},
	}))
	m.AddGlobal(&Global{Name: "pool", Elem: Array(I8, 256), PM: true})
	m.AddGlobal(&Global{Name: "msg", Elem: Array(I8, 6), Init: []byte("hello\x00")})

	decl := NewFunc("pm_alloc", Ptr, &Param{Name: "n", Ty: I64})
	m.AddFunc(decl)

	callee := NewFunc("store_key", Void, &Param{Name: "p", Ty: Ptr}, &Param{Name: "k", Ty: I64})
	m.AddFunc(callee)
	{
		b := NewBuilder(callee)
		b.SetLoc(Loc{File: "sample.pmc", Line: 3})
		addr := b.PtrAdd(callee.Params[0], ConstInt(0), 0, node.FieldByName("key").Offset)
		b.Store(I64, callee.Params[1], addr)
		b.Flush(CLWB, addr)
		b.Fence(SFENCE)
		b.Ret(nil)
	}

	f := NewFunc("main", I64)
	m.AddFunc(f)
	b := NewBuilder(f)
	b.SetLoc(Loc{File: "sample.pmc", Line: 10})
	slot := b.Alloca(I64)
	b.Store(I64, ConstInt(7), slot)
	v := b.Load(I64, slot)
	nptr := b.Call(m.Func("pm_alloc"), ConstInt(node.Size()))
	b.Call(callee, nptr, v)
	sum := b.Bin(OpAdd, I64, v, ConstInt(35))
	cond := b.Cmp(OpLt, sum, ConstInt(100))
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	exit := b.NewBlock("exit")
	b.Br(cond, then, els)
	b.SetBlock(then)
	small := b.Cast(OpTrunc, I8, sum)
	wide := b.Cast(OpZExt, I64, small)
	b.NTStore(I64, wide, nptr)
	b.Fence(SFENCE)
	b.Jmp(exit)
	b.SetBlock(els)
	asInt := b.Cast(OpPtrToInt, I64, nptr)
	back := b.Cast(OpIntToPtr, Ptr, asInt)
	b.Flush(CLFLUSH, back)
	b.Jmp(exit)
	b.SetBlock(exit)
	b.Ret(sum)
	f.Renumber()
	callee.Renumber()

	if err := Verify(m); err != nil {
		t.Fatalf("sample module does not verify: %v", err)
	}
	return m
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := buildSample(t)
	text1 := Print(m)
	m2, err := ParseModule(text1)
	if err != nil {
		t.Fatalf("parse printed module: %v\n%s", err, text1)
	}
	if err := Verify(m2); err != nil {
		t.Fatalf("reparsed module does not verify: %v", err)
	}
	text2 := Print(m2)
	if text1 != text2 {
		t.Errorf("round-trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text1, text2)
	}
}

func TestParsePreservesSemantics(t *testing.T) {
	m := buildSample(t)
	m2 := CloneModule(m)
	if got, want := len(m2.Funcs), len(m.Funcs); got != want {
		t.Fatalf("clone has %d funcs, want %d", got, want)
	}
	f := m2.Func("main")
	if f == nil {
		t.Fatal("clone lost @main")
	}
	if f.NumInstrs() != m.Func("main").NumInstrs() {
		t.Errorf("clone @main has %d instrs, want %d", f.NumInstrs(), m.Func("main").NumInstrs())
	}
	g := m2.Global("msg")
	if g == nil || string(g.Init) != "hello\x00" {
		t.Errorf("clone lost global initializer: %+v", g)
	}
	if !m2.Global("pool").PM {
		t.Error("clone lost pm attribute")
	}
	// Instruction IDs must survive the round-trip (trace compatibility).
	for _, name := range []string{"main", "store_key"} {
		fOrig, fClone := m.Func(name), m2.Func(name)
		for _, b := range fOrig.Blocks {
			for _, in := range b.Instrs {
				ci := fClone.InstrByID(int(in.ID))
				if ci == nil || ci.Op != in.Op {
					t.Errorf("@%s: instruction ID %d not preserved", name, in.ID)
				}
			}
		}
	}
}

func TestParseLocations(t *testing.T) {
	m := buildSample(t)
	m2 := CloneModule(m)
	in := m2.Func("store_key").Entry().Instrs[1]
	if loc := in.Loc(); loc.File != "sample.pmc" || loc.Line != 3 {
		t.Errorf("loc = %v, want sample.pmc:3", loc)
	}
}

func TestCloneFunc(t *testing.T) {
	m := buildSample(t)
	orig := m.Func("store_key")
	clone := CloneFunc(orig, "store_key__pm")
	if m.Func("store_key__pm") != clone {
		t.Fatal("clone not registered in module")
	}
	if clone.NumInstrs() != orig.NumInstrs() {
		t.Fatalf("clone has %d instrs, want %d", clone.NumInstrs(), orig.NumInstrs())
	}
	// The clone must not share instruction or parameter identity.
	if clone.Params[0] == orig.Params[0] {
		t.Error("clone shares parameter identity with original")
	}
	if clone.Entry().Instrs[0] == orig.Entry().Instrs[0] {
		t.Error("clone shares instruction identity with original")
	}
	// Operands in the clone must refer to cloned values.
	cloneStore := clone.Entry().Instrs[1]
	if cloneStore.Op != OpStore {
		t.Fatalf("unexpected clone layout: %s", FormatInstr(cloneStore))
	}
	if cloneStore.StorePtr() != clone.Entry().Instrs[0] {
		t.Error("clone store pointer does not reference cloned ptradd")
	}
	if cloneStore.StoreVal() != clone.Params[1] {
		t.Error("clone store value does not reference cloned parameter")
	}
	// Mutating the clone must leave the original untouched.
	n := orig.NumInstrs()
	b := clone.Entry()
	b.InsertAfter(cloneStore, &Instr{Op: OpFence, Ty: Void, FenceK: SFENCE})
	if orig.NumInstrs() != n {
		t.Error("mutating clone changed the original")
	}
	if err := Verify(m); err != nil {
		t.Errorf("module with clone does not verify: %v", err)
	}
}

func TestInsertAfterBefore(t *testing.T) {
	f := NewFunc("f", Void)
	b := NewBuilder(f)
	a1 := b.Alloca(I64)
	st := b.Store(I64, ConstInt(1), a1)
	b.Ret(nil)

	blk := f.Entry()
	fl := &Instr{Op: OpFlush, Ty: Void, FlushK: CLWB, Args: []Value{a1}}
	blk.InsertAfter(st, fl)
	fe := &Instr{Op: OpFence, Ty: Void, FenceK: SFENCE}
	blk.InsertAfter(fl, fe)
	wantOps := []Op{OpAlloca, OpStore, OpFlush, OpFence, OpRet}
	for i, in := range blk.Instrs {
		if in.Op != wantOps[i] {
			t.Fatalf("instr %d = %s, want %s", i, in.Op, wantOps[i])
		}
	}
	pre := &Instr{Op: OpFence, Ty: Void, FenceK: MFENCE}
	blk.InsertBefore(blk.Instrs[0], pre)
	if blk.Instrs[0] != pre {
		t.Error("InsertBefore at head failed")
	}
}

func TestVerifyCatchesErrors(t *testing.T) {
	mk := func(mut func(m *Module)) error {
		m := buildSample(t)
		mut(m)
		return verifyBoth(t, m)
	}
	cases := []struct {
		name string
		mut  func(m *Module)
		want string
	}{
		{
			name: "missing terminator",
			mut: func(m *Module) {
				blk := m.Func("main").Entry()
				blk.Instrs = blk.Instrs[:3]
			},
			want: "terminator",
		},
		{
			name: "store type mismatch",
			mut: func(m *Module) {
				f := m.Func("store_key")
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						if in.Op == OpStore {
							in.SetStoreTy(I8)
						}
					}
				}
			},
			want: "store type",
		},
		{
			name: "cross function operand",
			mut: func(m *Module) {
				foreign := m.Func("store_key").Params[0]
				f := m.Func("main")
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						if in.Op == OpFlush {
							in.Args[0] = foreign
						}
					}
				}
			},
			want: "defined outside",
		},
		{
			name: "call arity",
			mut: func(m *Module) {
				f := m.Func("main")
				for _, b := range f.Blocks {
					for _, in := range b.Instrs {
						if in.Op == OpCall && in.Callee().Name == "store_key" {
							in.Args = in.Args[:1]
						}
					}
				}
			},
			want: "args",
		},
		{
			name: "branch condition type",
			mut: func(m *Module) {
				f := m.Func("main")
				for _, b := range f.Blocks {
					if term := b.Terminator(); term != nil && term.Op == OpBr {
						term.Args[0] = ConstInt(1)
					}
				}
			},
			want: "i1",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := mk(c.mut)
			if err == nil {
				t.Fatal("Verify accepted a broken module")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestInstrSize: every parse, lowering and clone allocates one Instr per
// instruction, so the one-byte opcode and kind fields stay packed into
// one word at the top of the struct, the opcode-specific operands (alloca
// and store types, ptradd offsets, callee, successors), of which no
// opcode has two, share one interface field, the source location is a
// pointer that instructions lowered from one line share, and ID and Slot
// are 32-bit.
func TestInstrSize(t *testing.T) {
	if got := unsafe.Sizeof(Instr{}); got != 104 {
		t.Errorf("Instr is %d bytes, want 104", got)
	}
}

// TestParseSkipsTrailingBodyComments: blank and comment lines right
// before a function's closing brace are skipped like everywhere else.
// The body parser once read past them into the brace and failed with
// `unknown mnemonic "}"`.
func TestParseSkipsTrailingBodyComments(t *testing.T) {
	const clean = "module m\n\nfunc @f() -> i64 {\nentry:\n  ret i64 0\n}\n\nfunc @g() -> void {\nentry:\n  ret void\n}\n"
	for name, tail := range map[string]string{
		"comment":              "  ; note\n",
		"blank line":           "\n",
		"comment and blanks":   "\n  ; note\n\n",
		"unindented comment":   "; note\n",
		"several comments":     "; a\n; b\n",
		"whitespace-only line": "   \t\n",
	} {
		t.Run(name, func(t *testing.T) {
			src := strings.Replace(clean, "  ret i64 0\n", "  ret i64 0\n"+tail, 1)
			src = strings.Replace(src, "  ret void\n", "  ret void\n"+tail, 1)
			m, err := ParseModule(src)
			if err != nil {
				t.Fatalf("ParseModule: %v\n%s", err, src)
			}
			if got := Print(m); got != clean {
				t.Errorf("parsed module prints as\n%s\nwant\n%s", got, clean)
			}
		})
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
	}{
		{"no header", "func @f() -> void {\nentry:\n  ret void\n}"},
		{"undefined value", "module m\nfunc @f() -> void {\nentry:\n  flush clwb, ptr %nope\n  ret void\n}"},
		{"unknown callee", "module m\nfunc @f() -> void {\nentry:\n  call @missing()\n  ret void\n}"},
		{"unknown block", "module m\nfunc @f() -> void {\nentry:\n  jmp ^missing\n}"},
		{"bad mnemonic", "module m\nfunc @f() -> void {\nentry:\n  frobnicate i64 1, 2\n  ret void\n}"},
		{"duplicate result", "module m\nfunc @f() -> void {\nentry:\n  %a = alloca i64\n  %a = alloca i64\n  ret void\n}"},
		{"bad struct", "module m\nstruct %S broken"},
		{"unknown type", "module m\nfunc @f() -> q17 {\nentry:\n  ret void\n}"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseModule(c.src); err == nil {
				t.Errorf("ParseModule accepted malformed input")
			}
		})
	}
}

func TestRenumberAndInstrByID(t *testing.T) {
	m := buildSample(t)
	f := m.Func("main")
	f.Renumber()
	seen := map[int32]bool{}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if seen[in.ID] {
				t.Fatalf("duplicate ID %d", in.ID)
			}
			seen[in.ID] = true
			if got := f.InstrByID(int(in.ID)); got != in {
				t.Fatalf("InstrByID(%d) = %v, want %v", in.ID, got, in)
			}
		}
	}
	if f.InstrByID(99999) != nil {
		t.Error("InstrByID of unknown ID should be nil")
	}
}

func TestModuleLookups(t *testing.T) {
	m := buildSample(t)
	if m.Func("nope") != nil || m.Global("nope") != nil || m.Struct("nope") != nil {
		t.Error("lookup of missing names should return nil")
	}
	if m.NumInstrs() == 0 {
		t.Error("NumInstrs = 0")
	}
	m.RemoveFunc("main")
	if m.Func("main") != nil {
		t.Error("RemoveFunc did not remove @main")
	}
	m.RemoveFunc("main") // no-op must not panic
}

func TestConstHelpers(t *testing.T) {
	if ConstBool(true).Val != 1 || ConstBool(false).Val != 0 {
		t.Error("ConstBool broken")
	}
	if ConstI8(0x1ff).Val != 0xff {
		t.Error("ConstI8 must truncate")
	}
	if Null().OperandString() != "null" {
		t.Error("Null spelling")
	}
	if ConstInt(-5).OperandString() != "-5" {
		t.Error("negative constant spelling")
	}
}

func TestFlushFenceKinds(t *testing.T) {
	if CLFLUSH.Ordered() != true || CLWB.Ordered() != false || CLFLUSHOPT.Ordered() != false {
		t.Error("flush ordering attributes wrong")
	}
	if CLWB.String() != "clwb" || SFENCE.String() != "sfence" || MFENCE.String() != "mfence" {
		t.Error("kind spellings wrong")
	}
}

func TestDominators(t *testing.T) {
	// entry -> {then, else} -> merge -> loop { body -> merge2... }
	f := NewFunc("f", Void, &Param{Name: "c", Ty: I1})
	b := NewBuilder(f)
	entry := b.Block()
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	merge := b.NewBlock("merge")
	v := b.Alloca(I64)
	b.Br(f.Params[0], then, els)
	b.SetBlock(then)
	b.Store(I64, ConstInt(1), v)
	b.Jmp(merge)
	b.SetBlock(els)
	b.Store(I64, ConstInt(2), v)
	b.Jmp(merge)
	b.SetBlock(merge)
	b.Ret(nil)
	f.Renumber()
	var d Dominators
	d.compute(f)
	if !d.Dominates(entry, merge) || !d.Dominates(entry, then) {
		t.Error("entry must dominate everything")
	}
	if d.Dominates(then, merge) || d.Dominates(els, merge) {
		t.Error("branch arms must not dominate the merge")
	}
	if !d.Dominates(merge, merge) {
		t.Error("blocks dominate themselves")
	}
}

func TestVerifyCatchesDominanceViolation(t *testing.T) {
	// A value defined only on one branch arm but used at the merge.
	m := NewModule("dom")
	f := NewFunc("f", I64, &Param{Name: "c", Ty: I1})
	m.AddFunc(f)
	b := NewBuilder(f)
	then := b.NewBlock("then")
	els := b.NewBlock("else")
	merge := b.NewBlock("merge")
	b.Br(f.Params[0], then, els)
	b.SetBlock(then)
	onlyHere := b.Bin(OpAdd, I64, ConstInt(1), ConstInt(2))
	b.Jmp(merge)
	b.SetBlock(els)
	b.Jmp(merge)
	b.SetBlock(merge)
	b.Ret(onlyHere) // not dominated by its definition
	f.Renumber()
	err := verifyBoth(t, m)
	if err == nil || !strings.Contains(err.Error(), "dominate") {
		t.Errorf("Verify = %v, want dominance violation", err)
	}
}

func TestVerifyCatchesUseBeforeDefSameBlock(t *testing.T) {
	m := NewModule("ubd")
	f := NewFunc("f", I64)
	m.AddFunc(f)
	b := NewBuilder(f)
	x := b.Bin(OpAdd, I64, ConstInt(1), ConstInt(2))
	y := b.Bin(OpAdd, I64, x, ConstInt(3))
	b.Ret(y)
	f.Renumber()
	// Swap x and y: y now uses x before x is defined.
	blk := f.Entry()
	blk.Instrs[0], blk.Instrs[1] = blk.Instrs[1], blk.Instrs[0]
	err := verifyBoth(t, m)
	if err == nil || !strings.Contains(err.Error(), "precedes definition") {
		t.Errorf("Verify = %v, want use-before-def", err)
	}
}
