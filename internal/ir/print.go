package ir

import (
	"strconv"
	"strings"
)

// Print renders the module in its textual form. The output parses back via
// ParseModule (round-trip property-tested). Everything is written straight
// into one builder, pre-grown to the module's estimated size, so a print
// costs one allocation of about its own output size.
func Print(m *Module) string {
	var b strings.Builder
	b.Grow(printSizeHint(m))
	b.WriteString("module ")
	b.WriteString(m.Name)
	b.WriteByte('\n')
	for _, st := range m.Structs {
		b.WriteByte('\n')
		writeTypeDef(&b, st)
		b.WriteByte('\n')
	}
	if len(m.Globals) > 0 {
		b.WriteByte('\n')
	}
	for _, g := range m.Globals {
		if g.PM {
			b.WriteString("pm ")
		}
		b.WriteString("global @")
		b.WriteString(g.Name)
		b.WriteString(": ")
		writeType(&b, g.Elem)
		if len(g.Init) > 0 {
			b.WriteString(` = x"`)
			for _, c := range g.Init {
				b.WriteByte(hexDigits[c>>4])
				b.WriteByte(hexDigits[c&0xf])
			}
			b.WriteByte('"')
		}
		b.WriteByte('\n')
	}
	for _, f := range m.Funcs {
		b.WriteByte('\n')
		if f.IsDecl() {
			b.WriteString("declare ")
			writeSig(&b, f)
			b.WriteByte('\n')
			continue
		}
		b.WriteString("func ")
		writeSig(&b, f)
		b.WriteString(" {\n")
		for _, blk := range f.Blocks {
			b.WriteString(blk.Name)
			b.WriteString(":\n")
			for _, in := range blk.Instrs {
				b.WriteString("  ")
				writeInstr(&b, in)
				b.WriteByte('\n')
			}
		}
		b.WriteString("}\n")
	}
	return b.String()
}

const hexDigits = "0123456789abcdef"

// printSizeHint slightly overestimates Print's output length, so the
// builder never regrows: across the corpus and generated programs no
// module needs more than 40 bytes per instruction plus its location's
// file name, and 512 for the rest.
func printSizeHint(m *Module) int {
	n := 512
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				n += 40 + len(in.Loc().File)
			}
		}
	}
	return n
}

// FormatSite renders an instruction's exact position as
// file:@func:block:index, where index is the instruction's position in its
// basic block at the time of the call: the site string of the fixer's
// audit entries and of optimize's edits.
func FormatSite(in *Instr) string {
	blk := in.Block()
	if blk == nil {
		return "<detached>"
	}
	idx := -1
	for i, x := range blk.Instrs {
		if x == in {
			idx = i
			break
		}
	}
	file := in.Loc().File
	if file == "" {
		file = "<generated>"
	}
	return file + ":@" + blk.Func().Name + ":" + blk.Name + ":" + strconv.Itoa(idx)
}

// FormatInstr renders one instruction (without indentation or newline).
func FormatInstr(in *Instr) string {
	var b strings.Builder
	writeInstr(&b, in)
	return b.String()
}

// writeInstr writes one instruction in its textual form.
func writeInstr(b *strings.Builder, in *Instr) {
	if in.HasResult() {
		b.WriteByte('%')
		b.WriteString(in.Name)
		b.WriteString(" = ")
	}
	switch in.Op {
	case OpAlloca:
		b.WriteString("alloca ")
		writeType(b, in.AllocTy())
	case OpLoad:
		b.WriteString("load ")
		writeType(b, in.Ty)
		b.WriteString(", ")
		writeOperand(b, in.Args[0])
	case OpStore, OpNTStore:
		b.WriteString(in.Op.String())
		b.WriteByte(' ')
		writeType(b, in.StoreTy())
		b.WriteByte(' ')
		writeValue(b, in.Args[0])
		b.WriteString(", ")
		writeOperand(b, in.Args[1])
	case OpPtrAdd:
		b.WriteString("ptradd ")
		writeOperand(b, in.Args[0])
		b.WriteString(", ")
		writeOperand(b, in.Args[1])
		b.WriteString(", ")
		writeInt(b, in.Scale())
		b.WriteString(", ")
		writeInt(b, in.Disp())
	case OpCall, OpSpawn:
		b.WriteString(in.Op.String())
		b.WriteString(" @")
		b.WriteString(in.Callee().Name)
		b.WriteByte('(')
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			writeOperand(b, a)
		}
		b.WriteByte(')')
	case OpBr:
		b.WriteString("br ")
		writeOperand(b, in.Args[0])
		b.WriteString(", ^")
		b.WriteString(in.Succs()[0].Name)
		b.WriteString(", ^")
		b.WriteString(in.Succs()[1].Name)
	case OpJmp:
		b.WriteString("jmp ^")
		b.WriteString(in.Succs()[0].Name)
	case OpRet:
		if len(in.Args) == 0 {
			b.WriteString("ret void")
		} else {
			b.WriteString("ret ")
			writeOperand(b, in.Args[0])
		}
	case OpFlush:
		b.WriteString("flush ")
		b.WriteString(in.FlushK.String())
		b.WriteString(", ")
		writeOperand(b, in.Args[0])
	case OpFence:
		b.WriteString("fence ")
		b.WriteString(in.FenceK.String())
	case OpJoin:
		b.WriteString("join ")
		writeOperand(b, in.Args[0])
	case OpAtomicLoad:
		b.WriteString("atomicload ")
		b.WriteString(in.Order.String())
		b.WriteByte(' ')
		writeType(b, in.Ty)
		b.WriteString(", ")
		writeOperand(b, in.Args[0])
	case OpAtomicStore:
		b.WriteString("atomicstore ")
		b.WriteString(in.Order.String())
		b.WriteByte(' ')
		writeType(b, in.StoreTy())
		b.WriteByte(' ')
		writeValue(b, in.Args[0])
		b.WriteString(", ")
		writeOperand(b, in.Args[1])
	case OpAtomicRMW:
		b.WriteString("atomicrmw ")
		b.WriteString(in.RMWK.String())
		b.WriteByte(' ')
		b.WriteString(in.Order.String())
		b.WriteByte(' ')
		writeOperand(b, in.Args[0])
		b.WriteString(", ")
		writeOperand(b, in.Args[1])
	case OpAtomicCAS:
		b.WriteString("atomiccas ")
		b.WriteString(in.Order.String())
		b.WriteByte(' ')
		writeOperand(b, in.Args[0])
		b.WriteString(", ")
		writeOperand(b, in.Args[1])
		b.WriteString(", ")
		writeOperand(b, in.Args[2])
	default:
		switch {
		case in.Op.IsBinary(), in.Op.IsCmp():
			// Comparisons print the operand type (the result is i1).
			ty := in.Ty
			if in.Op.IsCmp() {
				ty = in.Args[0].Type()
			}
			b.WriteString(in.Op.String())
			b.WriteByte(' ')
			writeType(b, ty)
			b.WriteByte(' ')
			writeValue(b, in.Args[0])
			b.WriteString(", ")
			writeValue(b, in.Args[1])
		case in.Op.IsCast():
			b.WriteString(in.Op.String())
			b.WriteByte(' ')
			writeOperand(b, in.Args[0])
			b.WriteString(" to ")
			writeType(b, in.Ty)
		default:
			b.WriteByte('<')
			b.WriteString(in.Op.String())
			b.WriteString("?>")
		}
	}
	if loc := in.loc; loc != nil {
		b.WriteString(" !")
		b.WriteString(loc.File)
		b.WriteByte(':')
		writeInt(b, int64(loc.Line))
	}
}

// writeOperand writes a typed operand, e.g. "i64 %x", "ptr @g", "i64 42".
func writeOperand(b *strings.Builder, v Value) {
	writeType(b, v.Type())
	b.WriteByte(' ')
	writeValue(b, v)
}

// operandString returns what writeValue writes; the OperandString
// methods delegate to it, so each spelling exists once.
func operandString(v Value) string {
	var b strings.Builder
	writeValue(&b, v)
	return b.String()
}

// writeValue writes a value's operand spelling (Value.OperandString).
func writeValue(b *strings.Builder, v Value) {
	switch x := v.(type) {
	case *Instr:
		b.WriteByte('%')
		b.WriteString(x.Name)
	case *Param:
		b.WriteByte('%')
		b.WriteString(x.Name)
	case *Global:
		b.WriteByte('@')
		b.WriteString(x.Name)
	case *Const:
		if IsPtr(x.Ty) && x.Val == 0 {
			b.WriteString("null")
			return
		}
		writeInt(b, x.Val)
	default:
		b.WriteString(v.OperandString())
	}
}

// typeString returns what writeType writes; the String methods of the
// composite types delegate to it.
func typeString(t Type) string {
	var b strings.Builder
	writeType(&b, t)
	return b.String()
}

// writeType writes a type's spelling (Type.String).
func writeType(b *strings.Builder, t Type) {
	switch x := t.(type) {
	case nil:
		b.WriteString("%!s(<nil>)") // fmt's spelling, for messages about malformed IR
	case *StructType:
		b.WriteByte('%')
		b.WriteString(x.Name)
	case *ArrayType:
		b.WriteByte('[')
		writeInt(b, x.Len)
		b.WriteString(" x ")
		writeType(b, x.Elem)
		b.WriteByte(']')
	default:
		b.WriteString(t.String())
	}
}

// writeTypeDef writes a struct definition line: "struct %Name { ... }".
func writeTypeDef(b *strings.Builder, t *StructType) {
	b.WriteString("struct %")
	b.WriteString(t.Name)
	b.WriteString(" {")
	for i, f := range t.Fields {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteByte(' ')
		b.WriteString(f.Name)
		b.WriteString(": ")
		writeType(b, f.Type)
	}
	b.WriteString(" }")
}

// writeSig writes a signature, e.g. "@f(%p: ptr, %n: i64) -> i64".
func writeSig(b *strings.Builder, f *Func) {
	b.WriteByte('@')
	b.WriteString(f.Name)
	b.WriteByte('(')
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteByte('%')
		b.WriteString(p.Name)
		b.WriteString(": ")
		writeType(b, p.Ty)
	}
	b.WriteString(") -> ")
	writeType(b, f.Ret)
}

func writeInt(b *strings.Builder, v int64) {
	var buf [20]byte
	b.Write(strconv.AppendInt(buf[:0], v, 10))
}
