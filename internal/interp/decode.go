package interp

import (
	"fmt"

	"hippocrates/internal/ir"
)

// Decoding: translate once, run the translation.
//
// Valgrind, which pmemcheck runs on, translates each basic block once
// and then runs the cached translation. The interpreter does the same
// per function: on a function's first call it decodes the body into a
// flat []op, with every operand resolved to a register index, widths,
// truncation masks and frame sizes precomputed, callees and builtins
// resolved, and successors as op indexes. The op array is kept on the
// ir.Func (Func.PublishDecoded) and dropped by any edit of the body, so
// every machine running an unchanged module shares one translation.

// opcode is a decoded op's dispatch code.
type opcode uint8

// The decoded opcodes. Arithmetic and comparisons get one code each, so
// the dispatch switch is the only branch on the operation.
const (
	opBad opcode = iota // cannot execute: faults naming the instruction (in nil: the malformed block a)
	opAlloca
	opLoad
	opStore // store and ntstore (flagNT)
	opPtrAdd
	opPtrAddR // ptradd whose scale or displacement needs 64 bits
	opAdd
	opSub
	opMul
	opSDiv
	opSRem
	opAnd
	opOr
	opXor
	opShl
	opAShr
	opEq
	opNe
	opLt
	opLe
	opGt
	opGe
	opCast
	opCall
	opBr
	opJmp
	opRet
	opFlush
	opFence
	opSpawn
	opJoin
	opAtomicLoad
	opAtomicStore
	opAtomicRMW
	opAtomicCAS
)

// op flags.
const (
	flagNT      uint8 = 1 << iota // opStore: non-temporal
	flagOrdered                   // opFlush: CLFLUSH commits immediately
)

// op is one decoded instruction, in 32 bytes. Operands are register
// indexes into the frame's register file, which holds the function's
// value slots, then the addresses of the globals it names, then its
// constants. The 32-bit fields double as immediates where noted.
type op struct {
	// in is the instruction decoded, for trace events, stacks and faults.
	in    *ir.Instr
	code  opcode
	iop   ir.Op // in.Op, for the per-opcode counters
	flags uint8
	// dst is the result register (-1 for none).
	dst int32
	// a, b and c are the operands in instruction order. Loads,
	// arithmetic and casts keep their truncation mask in c (sign
	// extended: 1, 0xff or all ones), and ptradd its scale. A branch
	// keeps its condition in a and its targets, as op indexes, in b
	// (taken when the condition holds, and the jump's only one) and c.
	a, b, c int32
	// x is the access width in bytes of loads and stores, ptradd's
	// displacement, the register holding alloca's aligned frame bytes,
	// and the call-site index of calls and spawns. opPtrAddR keeps its
	// scale and displacement in the registers c and x.
	x int32
}

// mask is the truncation mask c holds.
func (o *op) mask() uint64 { return uint64(int64(o.c)) }

// callSite is a decoded call or spawn.
type callSite struct {
	callee *ir.Func
	// bi is the standard external of callee's name, if any; it runs
	// when callee is a declaration.
	bi builtin
	// args are the argument registers: code.args[off : off+n].
	off, n int32
}

// code is one function's decoded body.
type code struct {
	// mod is the module the global operands were resolved against.
	mod   *ir.Module
	ops   []op
	sites []callSite
	args  []int32
	// nslots is fn's value-slot count. The registers after the slots
	// hold the addresses of globals (module global indexes), then the
	// constants.
	nslots  int
	globals []int32
	consts  []uint64
	nregs   int
}

// codeOf returns fn's decoded body for the machine's module, decoding
// it on the function's first call since its last edit.
func (m *Machine) codeOf(fn *ir.Func) *code {
	if c, ok := fn.Decoded().(*code); ok && c.mod == m.Mod {
		return c
	}
	if m.dec == nil {
		m.dec = new(decoder)
	}
	c := m.dec.decode(m.Mod, fn)
	if fn.Mod == m.Mod {
		if w, ok := fn.PublishDecoded(c).(*code); ok && w.mod == m.Mod {
			c = w
		}
	}
	return c
}

// decoder holds a machine's decoding buffers, reused from one function
// to the next.
type decoder struct {
	mod *ir.Module
	fn  *ir.Func
	// globals and consts collect the module indexes of the globals the
	// function names and its constant pool.
	globals []int32
	consts  []uint64
	// starts holds the op index of each block.
	starts []int32
	blk    int // index of the block being decoded
}

// decode translates fn's body, resolving global operands by name in mod
// (an unknown name reads as address 0). A body the verifier rejects for
// its blocks decodes to one opBad naming the first such block, so it
// faults on entry and never runs past the end of its ops.
func (d *decoder) decode(mod *ir.Module, fn *ir.Func) *code {
	fn.Entry() // a declaration has no body to run
	for bi, b := range fn.Blocks {
		if !regularBlock(b) {
			return &code{mod: mod, ops: []op{{code: opBad, dst: -1, a: int32(bi)}}}
		}
	}
	d.mod, d.fn = mod, fn
	d.globals, d.consts = d.globals[:0], d.consts[:0]
	nsites, nargs := 0, 0
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall || in.Op == ir.OpSpawn {
				nsites++
				nargs += len(in.Args)
			}
			// The globals' registers precede the constants', so collect
			// the globals first.
			for _, a := range in.Args {
				if g, ok := a.(*ir.Global); ok {
					d.global(g)
				}
			}
		}
	}
	if cap(d.starts) < len(fn.Blocks) {
		d.starts = make([]int32, len(fn.Blocks))
	}
	d.starts = d.starts[:len(fn.Blocks)]
	pc := 0
	for i, b := range fn.Blocks {
		d.starts[i] = int32(pc)
		pc += len(b.Instrs)
	}
	c := &code{
		mod:    mod,
		nslots: fn.NumSlots(),
		ops:    make([]op, 0, pc),
		sites:  make([]callSite, 0, nsites),
		args:   make([]int32, 0, nargs),
	}
	for bi, b := range fn.Blocks {
		d.blk = bi
		for _, in := range b.Instrs {
			o := d.op(in)
			if o.code == opCall || o.code == opSpawn {
				callee := in.Callee()
				cs := callSite{callee: callee, bi: stdBuiltins[callee.Name], off: int32(len(c.args)), n: int32(len(in.Args))}
				for _, a := range in.Args {
					c.args = append(c.args, d.operand(a))
				}
				o.x = int32(len(c.sites))
				c.sites = append(c.sites, cs)
			}
			c.ops = append(c.ops, o)
		}
	}
	if len(d.globals) > 0 {
		c.globals = append([]int32(nil), d.globals...)
	}
	if len(d.consts) > 0 {
		c.consts = append([]uint64(nil), d.consts...)
	}
	c.nregs = c.nslots + len(c.globals) + len(c.consts)
	return c
}

// regularBlock reports whether b is non-empty, ends in a terminator and
// has no other: the block shape ir.Verify requires, and the one the
// decoded ops rely on to never run off a block's end.
func regularBlock(b *ir.Block) bool {
	n := len(b.Instrs)
	if n == 0 || !b.Instrs[n-1].Op.IsTerminator() {
		return false
	}
	for _, in := range b.Instrs[:n-1] {
		if in.Op.IsTerminator() {
			return false
		}
	}
	return true
}

// op decodes one instruction (call sites are filled in by decode).
func (d *decoder) op(in *ir.Instr) op {
	o := op{in: in, iop: in.Op, dst: -1}
	res := func() {
		o.dst = in.Slot
	}
	switch in.Op {
	case ir.OpAlloca:
		o.code = opAlloca
		o.x = d.constant(alignUp(uint64(in.AllocTy().Size()), 16))
		res()
	case ir.OpLoad:
		o.code, o.a, o.c, o.x = opLoad, d.operand(in.Args[0]), truncMask(in.Ty), d.width(in.Ty)
		res()
	case ir.OpStore, ir.OpNTStore:
		o.code, o.a, o.b, o.x = opStore, d.operand(in.Args[0]), d.operand(in.Args[1]), d.width(in.StoreTy())
		if in.Op == ir.OpNTStore {
			o.flags |= flagNT
		}
	case ir.OpPtrAdd:
		o.code, o.a, o.b = opPtrAdd, d.operand(in.Args[0]), d.operand(in.Args[1])
		if scale, disp := in.Scale(), in.Disp(); scale == int64(int32(scale)) && disp == int64(int32(disp)) {
			o.c, o.x = int32(scale), int32(disp)
		} else {
			o.code, o.c, o.x = opPtrAddR, d.constant(uint64(scale)), d.constant(uint64(disp))
		}
		res()
	case ir.OpCall:
		o.code = opCall
		if in.HasResult() {
			res()
		}
	case ir.OpBr:
		o.code, o.a = opBr, d.operand(in.Args[0])
		succs := in.Succs()
		o.b, o.c = d.target(succs[0]), d.target(succs[1])
	case ir.OpJmp:
		o.code, o.b = opJmp, d.target(in.Succs()[0])
	case ir.OpRet:
		// A void return returns 0.
		o.code, o.a = opRet, d.constant(0)
		if len(in.Args) > 0 {
			o.a = d.operand(in.Args[0])
		}
	case ir.OpFlush:
		o.code, o.a = opFlush, d.operand(in.Args[0])
		if in.FlushK.Ordered() {
			o.flags |= flagOrdered
		}
	case ir.OpFence:
		o.code = opFence
	case ir.OpSpawn:
		o.code = opSpawn
		res()
	case ir.OpJoin:
		o.code, o.a = opJoin, d.operand(in.Args[0])
		res()
	case ir.OpAtomicLoad:
		o.code, o.a = opAtomicLoad, d.operand(in.Args[0])
		res()
	case ir.OpAtomicStore:
		o.code, o.a, o.b = opAtomicStore, d.operand(in.Args[0]), d.operand(in.Args[1])
	case ir.OpAtomicRMW:
		o.code, o.a, o.b = opAtomicRMW, d.operand(in.Args[0]), d.operand(in.Args[1])
		res()
	case ir.OpAtomicCAS:
		o.code, o.a, o.b, o.c = opAtomicCAS, d.operand(in.Args[0]), d.operand(in.Args[1]), d.operand(in.Args[2])
		res()
	default:
		switch {
		case in.Op.IsBinary():
			o.code = opAdd + opcode(in.Op-ir.OpAdd)
			o.a, o.b, o.c = d.operand(in.Args[0]), d.operand(in.Args[1]), truncMask(in.Ty)
			res()
		case in.Op.IsCmp():
			o.code = opEq + opcode(in.Op-ir.OpEq)
			o.a, o.b = d.operand(in.Args[0]), d.operand(in.Args[1])
			res()
		case in.Op.IsCast():
			o.code, o.a, o.c = opCast, d.operand(in.Args[0]), truncMask(in.Ty)
			res()
		default:
			o.code = opBad
		}
	}
	return o
}

// operand resolves an operand to its register index.
func (d *decoder) operand(v ir.Value) int32 {
	switch x := v.(type) {
	case *ir.Instr:
		return x.Slot
	case *ir.Param:
		return int32(x.Index)
	case *ir.Const:
		return d.constant(uint64(x.Val))
	case *ir.Global:
		if r, ok := d.global(x); ok {
			return r
		}
		return d.constant(0)
	default:
		panic(fmt.Sprintf("interp: unknown operand kind %T in @%s", v, d.fn.Name))
	}
}

// global returns the register holding g's address, adding g to the
// function's globals; false if the module has no global of g's name.
func (d *decoder) global(g *ir.Global) (int32, bool) {
	gi := -1
	for i, mg := range d.mod.Globals {
		if mg.Name == g.Name {
			gi = i
			break
		}
	}
	if gi < 0 {
		return 0, false
	}
	nslots := d.fn.NumSlots()
	for i, k := range d.globals {
		if int(k) == gi {
			return int32(nslots + i), true
		}
	}
	d.globals = append(d.globals, int32(gi))
	return int32(nslots + len(d.globals) - 1), true
}

// constant returns the register holding v, adding it to the pool.
func (d *decoder) constant(v uint64) int32 {
	base := d.fn.NumSlots() + len(d.globals)
	for i, k := range d.consts {
		if k == v {
			return int32(base + i)
		}
	}
	d.consts = append(d.consts, v)
	return int32(base + len(d.consts) - 1)
}

// width is the access width of type ty. The verifier admits only scalar
// accesses; a type too large for the field has no bytes to access.
func (d *decoder) width(ty ir.Type) int32 {
	size := ty.Size()
	if size != int64(int32(size)) {
		panic(fmt.Sprintf("interp: %d-byte access in @%s", size, d.fn.Name))
	}
	return int32(size)
}

// target returns the op index where block b starts. The current block
// is tried first, then its successors in layout order.
func (d *decoder) target(b *ir.Block) int32 {
	blocks := d.fn.Blocks
	for i := range blocks {
		j := (d.blk + i) % len(blocks)
		if blocks[j] == b {
			return d.starts[j]
		}
	}
	panic(fmt.Sprintf("interp: successor ^%s is not a block of @%s", b.Name, d.fn.Name))
}

// truncMask is the mask a result of type ty is truncated with, as the
// sign-extended 32-bit immediate op.mask reads.
func truncMask(ty ir.Type) int32 {
	switch ty {
	case ir.I1:
		return 1
	case ir.I8:
		return 0xff
	}
	return -1
}
