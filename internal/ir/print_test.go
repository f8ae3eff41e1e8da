package ir_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"hippocrates/internal/ir"
)

// oraclePrint is the fmt-based printer that ir.Print replaced, kept as the
// reference its direct-write successor must match byte for byte.
func oraclePrint(m *ir.Module) string {
	var b strings.Builder
	fmt.Fprintf(&b, "module %s\n", m.Name)
	for _, st := range m.Structs {
		b.WriteString("\n")
		fmt.Fprintf(&b, "struct %%%s {", st.Name)
		for i, f := range st.Fields {
			if i > 0 {
				b.WriteString(",")
			}
			fmt.Fprintf(&b, " %s: %s", f.Name, oracleType(f.Type))
		}
		b.WriteString(" }")
		b.WriteString("\n")
	}
	if len(m.Globals) > 0 {
		b.WriteString("\n")
	}
	for _, g := range m.Globals {
		if g.PM {
			b.WriteString("pm ")
		}
		fmt.Fprintf(&b, "global @%s: %s", g.Name, oracleType(g.Elem))
		if len(g.Init) > 0 {
			fmt.Fprintf(&b, " = x\"%x\"", g.Init)
		}
		b.WriteString("\n")
	}
	for _, f := range m.Funcs {
		b.WriteString("\n")
		if f.IsDecl() {
			fmt.Fprintf(&b, "declare %s\n", oracleSig(f))
			continue
		}
		fmt.Fprintf(&b, "func %s {\n", oracleSig(f))
		for _, blk := range f.Blocks {
			fmt.Fprintf(&b, "%s:\n", blk.Name)
			for _, in := range blk.Instrs {
				b.WriteString("  ")
				b.WriteString(oracleFormatInstr(in))
				b.WriteString("\n")
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

func oracleSig(f *ir.Func) string {
	s := "@" + f.Name + "("
	for i, p := range f.Params {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%%%s: %s", p.Name, oracleType(p.Ty))
	}
	return s + ") -> " + oracleType(f.Ret)
}

// oracleType is the fmt spelling of a type; composite types are spelt
// here so the oracle does not lean on the printer it checks.
func oracleType(t ir.Type) string {
	switch x := t.(type) {
	case *ir.ArrayType:
		return fmt.Sprintf("[%d x %s]", x.Len, oracleType(x.Elem))
	case *ir.StructType:
		return "%" + x.Name
	}
	return fmt.Sprintf("%s", t)
}

// oracleValue is the operand spelling the OperandString methods had
// before they delegated to the printer.
func oracleValue(v ir.Value) string {
	switch x := v.(type) {
	case *ir.Instr:
		return "%" + x.Name
	case *ir.Param:
		return "%" + x.Name
	case *ir.Global:
		return "@" + x.Name
	case *ir.Const:
		if ir.IsPtr(x.Ty) {
			if x.Val == 0 {
				return "null"
			}
			return fmt.Sprintf("ptraddr:%d", x.Val)
		}
		return strconv.FormatInt(x.Val, 10)
	}
	return fmt.Sprintf("<%T>", v)
}

func oracleFormatInstr(in *ir.Instr) string {
	var b strings.Builder
	if in.HasResult() {
		fmt.Fprintf(&b, "%%%s = ", in.Name)
	}
	switch in.Op {
	case ir.OpAlloca:
		fmt.Fprintf(&b, "alloca %s", oracleType(in.AllocTy))
	case ir.OpLoad:
		fmt.Fprintf(&b, "load %s, %s", oracleType(in.Ty), oracleOperand(in.Args[0]))
	case ir.OpStore:
		fmt.Fprintf(&b, "store %s %s, %s", oracleType(in.StoreTy), oracleValue(in.Args[0]), oracleOperand(in.Args[1]))
	case ir.OpNTStore:
		fmt.Fprintf(&b, "ntstore %s %s, %s", oracleType(in.StoreTy), oracleValue(in.Args[0]), oracleOperand(in.Args[1]))
	case ir.OpPtrAdd:
		fmt.Fprintf(&b, "ptradd %s, %s, %d, %d", oracleOperand(in.Args[0]), oracleOperand(in.Args[1]), in.Scale, in.Disp)
	case ir.OpCall:
		fmt.Fprintf(&b, "call @%s(", in.Callee.Name)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(oracleOperand(a))
		}
		b.WriteString(")")
	case ir.OpBr:
		fmt.Fprintf(&b, "br %s, ^%s, ^%s", oracleOperand(in.Args[0]), in.Succs[0].Name, in.Succs[1].Name)
	case ir.OpJmp:
		fmt.Fprintf(&b, "jmp ^%s", in.Succs[0].Name)
	case ir.OpRet:
		if len(in.Args) == 0 {
			b.WriteString("ret void")
		} else {
			fmt.Fprintf(&b, "ret %s", oracleOperand(in.Args[0]))
		}
	case ir.OpFlush:
		fmt.Fprintf(&b, "flush %s, %s", in.FlushK, oracleOperand(in.Args[0]))
	case ir.OpFence:
		fmt.Fprintf(&b, "fence %s", in.FenceK)
	case ir.OpSpawn:
		fmt.Fprintf(&b, "spawn @%s(", in.Callee.Name)
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(oracleOperand(a))
		}
		b.WriteString(")")
	case ir.OpJoin:
		fmt.Fprintf(&b, "join %s", oracleOperand(in.Args[0]))
	case ir.OpAtomicLoad:
		fmt.Fprintf(&b, "atomicload %s %s, %s", in.Order, oracleType(in.Ty), oracleOperand(in.Args[0]))
	case ir.OpAtomicStore:
		fmt.Fprintf(&b, "atomicstore %s %s %s, %s", in.Order, oracleType(in.StoreTy), oracleValue(in.Args[0]), oracleOperand(in.Args[1]))
	case ir.OpAtomicRMW:
		fmt.Fprintf(&b, "atomicrmw %s %s %s, %s", in.RMWK, in.Order, oracleOperand(in.Args[0]), oracleOperand(in.Args[1]))
	case ir.OpAtomicCAS:
		fmt.Fprintf(&b, "atomiccas %s %s, %s, %s", in.Order, oracleOperand(in.Args[0]), oracleOperand(in.Args[1]), oracleOperand(in.Args[2]))
	default:
		switch {
		case in.Op.IsBinary(), in.Op.IsCmp():
			ty := in.Ty
			if in.Op.IsCmp() {
				ty = in.Args[0].Type()
			}
			fmt.Fprintf(&b, "%s %s %s, %s", in.Op, oracleType(ty), oracleValue(in.Args[0]), oracleValue(in.Args[1]))
		case in.Op.IsCast():
			fmt.Fprintf(&b, "%s %s to %s", in.Op, oracleOperand(in.Args[0]), oracleType(in.Ty))
		default:
			fmt.Fprintf(&b, "<%s?>", in.Op)
		}
	}
	if !in.Loc.IsZero() {
		fmt.Fprintf(&b, " !%s:%d", in.Loc.File, in.Loc.Line)
	}
	return b.String()
}

func oracleOperand(v ir.Value) string {
	return oracleType(v.Type()) + " " + oracleValue(v)
}

// TestPrintMatchesOracle checks Print and FormatInstr byte for byte
// against the fmt-based oracle over the module set and a handwritten
// module that covers every opcode and spelling.
func TestPrintMatchesOracle(t *testing.T) {
	mods := append([]namedModule{{"every-opcode", everyOpcodeModule(t)}}, moduleSet()...)
	for _, nm := range mods {
		if got, want := ir.Print(nm.mod), oraclePrint(nm.mod); got != want {
			t.Errorf("%s: Print differs from the oracle at byte %d", nm.name, firstDiff(got, want))
		}
		for _, st := range nm.mod.Structs {
			if got, want := st.String(), oracleType(st); got != want {
				t.Errorf("%s: struct String %q, oracle %q", nm.name, got, want)
			}
		}
		for _, f := range nm.mod.Funcs {
			if got, want := f.Sig(), oracleSig(f); got != want {
				t.Errorf("%s: Sig %q, oracle %q", nm.name, got, want)
			}
			for _, b := range f.Blocks {
				for _, in := range b.Instrs {
					if got, want := ir.FormatInstr(in), oracleFormatInstr(in); got != want {
						t.Errorf("%s @%s: FormatInstr %q, oracle %q", nm.name, f.Name, got, want)
					}
					for _, a := range in.Args {
						if got, want := a.OperandString(), oracleValue(a); got != want {
							t.Errorf("%s @%s: OperandString %q, oracle %q", nm.name, f.Name, got, want)
						}
					}
				}
			}
		}
	}
	// Malformed instructions still format (the verifier quotes them).
	for _, in := range []*ir.Instr{
		{Op: ir.OpAlloca, Name: "x", Ty: ir.Ptr},
		{Op: ir.Op(99), Ty: ir.Void, Loc: ir.Loc{File: "bad.pmc", Line: 3}},
	} {
		if got, want := ir.FormatInstr(in), oracleFormatInstr(in); got != want {
			t.Errorf("malformed: FormatInstr %q, oracle %q", got, want)
		}
	}
}

func firstDiff(a, b string) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// everyOpcodeModule builds a module that uses every opcode, every flush,
// fence, order and RMW flavour, nested array and struct types, null and
// ptraddr: constants, a hex global initializer, and instructions with and
// without !file:line locations.
func everyOpcodeModule(t *testing.T) *ir.Module {
	m := ir.NewModule("every-opcode")
	grid := ir.Array(ir.Array(ir.I64, 3), 2)
	node := m.AddStruct(ir.NewStruct("node", []ir.Field{{Name: "next", Type: ir.Ptr}, {Name: "vals", Type: grid}, {Name: "tag", Type: ir.I8}}))
	pair := m.AddStruct(ir.NewStruct("pair", []ir.Field{{Name: "a", Type: ir.I64}, {Name: "n", Type: node}}))
	root := m.AddGlobal(&ir.Global{Name: "root", Elem: node, PM: true})
	m.AddGlobal(&ir.Global{Name: "msg", Elem: ir.Array(ir.I8, 6), Init: []byte("hello\x00")})
	m.AddGlobal(&ir.Global{Name: "cells", Elem: ir.Array(grid, 4), Init: []byte{0x00, 0x0f, 0xf0, 0xff}})
	alloc := m.AddFunc(ir.NewFunc("pm_alloc", ir.Ptr, &ir.Param{Name: "n", Ty: ir.I64}))

	worker := m.AddFunc(ir.NewFunc("worker", ir.I64, &ir.Param{Name: "p", Ty: ir.Ptr}, &ir.Param{Name: "v", Ty: ir.I64}))
	wb := ir.NewBuilder(worker)
	wb.SetLoc(ir.Loc{File: "demo.pmc", Line: 40})
	p, v := worker.Params[0], worker.Params[1]
	wb.AtomicLoad(ir.OrderAcquire, p)
	wb.AtomicStore(ir.OrderRelease, v, p)
	wb.AtomicRMW(ir.RMWAdd, v, p)
	wb.AtomicRMW(ir.RMWXchg, ir.ConstInt(-1), p)
	old := wb.AtomicCAS(ir.ConstInt(0), v, p)
	wb.Ret(old)

	main := m.AddFunc(ir.NewFunc("main", ir.I64))
	b := ir.NewBuilder(main)
	slot := b.Alloca(grid)
	pr := b.Alloca(pair)
	b.SetLoc(ir.Loc{File: "demo.pmc", Line: 7})
	x := b.Load(ir.I64, slot)
	b.Store(ir.I64, ir.ConstInt(42), slot)
	b.Store(ir.Ptr, ir.Null(), pr)
	b.Store(ir.Ptr, &ir.Const{Ty: ir.Ptr, Val: 4096}, pr)
	b.NTStore(ir.I64, x, root)
	q := b.PtrAdd(root, x, 8, -16)
	acc := ir.Value(x)
	for op := ir.OpAdd; op <= ir.OpAShr; op++ {
		acc = b.Bin(op, ir.I64, acc, ir.ConstInt(int64(op)))
	}
	small := b.Cast(ir.OpTrunc, ir.I8, acc)
	b.Bin(ir.OpAdd, ir.I8, small, ir.ConstI8(200))
	var cond ir.Value
	for op := ir.OpEq; op <= ir.OpGe; op++ {
		cond = b.Cmp(op, acc, ir.ConstInt(9))
	}
	b.Cast(ir.OpZExt, ir.I64, cond)
	addr := b.Cast(ir.OpPtrToInt, ir.I64, q)
	back := b.Cast(ir.OpIntToPtr, ir.Ptr, addr)
	b.Call(alloc, ir.ConstInt(node.Size()))
	b.SetLoc(ir.Loc{})
	b.Flush(ir.CLWB, back)
	b.Flush(ir.CLFLUSHOPT, q)
	b.Flush(ir.CLFLUSH, root)
	b.Fence(ir.SFENCE)
	b.Fence(ir.MFENCE)
	b.SetLoc(ir.Loc{File: "lib/deep path.pmc", Line: 1234567})
	h := b.Spawn(worker, root, acc)
	r := b.Join(h)
	then, els := b.NewBlock("then"), b.NewBlock("else")
	b.Br(cond, then, els)
	b.SetBlock(then)
	b.Ret(r)
	b.SetBlock(els)
	done := b.NewBlock("done")
	b.Jmp(done)
	b.SetBlock(done)
	b.Ret(ir.ConstInt(0))

	void := m.AddFunc(ir.NewFunc("nothing", ir.Void))
	ir.NewBuilder(void).Ret(nil)
	for _, f := range m.Funcs {
		f.Renumber()
	}
	seen := make([]bool, ir.NumOps)
	for _, f := range m.Funcs {
		for _, blk := range f.Blocks {
			for _, in := range blk.Instrs {
				seen[in.Op] = true
			}
		}
	}
	for op := 1; op < ir.NumOps; op++ {
		if !seen[op] {
			t.Fatalf("every-opcode module lacks %s", ir.Op(op))
		}
	}
	return m
}
