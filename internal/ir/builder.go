package ir

import "fmt"

// Builder appends instructions to a current block, generating fresh result
// names. It is the construction API used by the front end's lowering pass
// and by tests.
type Builder struct {
	fn  *Func
	blk *Block
	// loc is attached to every emitted instruction until changed.
	loc Loc
	// tmp feeds fresh value names (%t0, %t1, ...).
	tmp int
	// blkN feeds fresh block names.
	blkN int
}

// NewBuilder returns a builder positioned at the end of the function's
// entry block, creating one if the function has no blocks yet.
func NewBuilder(fn *Func) *Builder {
	b := &Builder{fn: fn}
	if len(fn.Blocks) == 0 {
		b.blk = fn.AddBlock("entry")
	} else {
		b.blk = fn.Blocks[len(fn.Blocks)-1]
	}
	return b
}

// Block returns the current insertion block.
func (b *Builder) Block() *Block { return b.blk }

// SetBlock moves the insertion point to the end of blk.
func (b *Builder) SetBlock(blk *Block) { b.blk = blk }

// SetLoc sets the source location attached to subsequent instructions.
func (b *Builder) SetLoc(loc Loc) { b.loc = loc }

// NewBlock creates a fresh block with a unique name derived from hint.
func (b *Builder) NewBlock(hint string) *Block {
	name := fmt.Sprintf("%s%d", hint, b.blkN)
	b.blkN++
	return b.fn.AddBlock(name)
}

// Terminated reports whether the current block already ends in a
// terminator (in which case further appends would be unreachable).
func (b *Builder) Terminated() bool { return b.blk.Terminator() != nil }

func (b *Builder) fresh() string {
	n := fmt.Sprintf("t%d", b.tmp)
	b.tmp++
	return n
}

func (b *Builder) emit(in *Instr) *Instr {
	in.Loc = b.loc
	if in.HasResult() && in.Name == "" {
		in.Name = b.fresh()
	}
	b.blk.Append(in)
	return in
}

// Alloca allocates a stack slot with the given layout and returns its address.
func (b *Builder) Alloca(layout Type) *Instr {
	return b.emit(&Instr{Op: OpAlloca, Ty: Ptr, AllocTy: layout})
}

// Load loads a scalar of type ty from ptr.
func (b *Builder) Load(ty Type, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpLoad, Ty: ty, Args: []Value{ptr}})
}

// Store stores val (of type ty) to ptr.
func (b *Builder) Store(ty Type, val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpStore, Ty: Void, StoreTy: ty, Args: []Value{val, ptr}})
}

// NTStore is a non-temporal store of val (of type ty) to ptr.
func (b *Builder) NTStore(ty Type, val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpNTStore, Ty: Void, StoreTy: ty, Args: []Value{val, ptr}})
}

// PtrAdd computes base + index*scale + disp.
func (b *Builder) PtrAdd(base, index Value, scale, disp int64) *Instr {
	return b.emit(&Instr{Op: OpPtrAdd, Ty: Ptr, Args: []Value{base, index}, Scale: scale, Disp: disp})
}

// FieldAddr computes the address of a struct field: base + field offset.
func (b *Builder) FieldAddr(base Value, f *Field) *Instr {
	return b.PtrAdd(base, ConstInt(0), 0, f.Offset)
}

// Bin emits a binary arithmetic/logic operation; both operands have type ty.
func (b *Builder) Bin(op Op, ty Type, x, y Value) *Instr {
	if !op.IsBinary() {
		panic("ir: Bin with non-binary op " + op.String())
	}
	return b.emit(&Instr{Op: op, Ty: ty, Args: []Value{x, y}})
}

// Cmp emits a comparison; the result has type i1.
func (b *Builder) Cmp(op Op, x, y Value) *Instr {
	if !op.IsCmp() {
		panic("ir: Cmp with non-comparison op " + op.String())
	}
	return b.emit(&Instr{Op: op, Ty: I1, Args: []Value{x, y}})
}

// Cast emits a conversion to type to.
func (b *Builder) Cast(op Op, to Type, x Value) *Instr {
	if !op.IsCast() {
		panic("ir: Cast with non-cast op " + op.String())
	}
	return b.emit(&Instr{Op: op, Ty: to, Args: []Value{x}})
}

// Call emits a direct call.
func (b *Builder) Call(callee *Func, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpCall, Ty: callee.Ret, Callee: callee, Args: args})
}

// Br emits a conditional branch.
func (b *Builder) Br(cond Value, then, els *Block) *Instr {
	return b.emit(&Instr{Op: OpBr, Ty: Void, Args: []Value{cond}, Succs: []*Block{then, els}})
}

// Jmp emits an unconditional branch.
func (b *Builder) Jmp(dest *Block) *Instr {
	return b.emit(&Instr{Op: OpJmp, Ty: Void, Succs: []*Block{dest}})
}

// Ret emits a return; val is nil for void functions.
func (b *Builder) Ret(val Value) *Instr {
	in := &Instr{Op: OpRet, Ty: Void}
	if val != nil {
		in.Args = []Value{val}
	}
	return b.emit(in)
}

// Flush emits a cache-line flush of the line containing ptr.
func (b *Builder) Flush(kind FlushKind, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpFlush, Ty: Void, FlushK: kind, Args: []Value{ptr}})
}

// Fence emits a memory fence.
func (b *Builder) Fence(kind FenceKind) *Instr {
	return b.emit(&Instr{Op: OpFence, Ty: Void, FenceK: kind})
}

// Spawn emits a thread spawn of callee; the result is the thread handle.
func (b *Builder) Spawn(callee *Func, args ...Value) *Instr {
	return b.emit(&Instr{Op: OpSpawn, Ty: I64, Callee: callee, Args: args})
}

// Join emits a join on a thread handle; the result is the thread's
// return value (0 for void thread functions).
func (b *Builder) Join(handle Value) *Instr {
	return b.emit(&Instr{Op: OpJoin, Ty: I64, Args: []Value{handle}})
}

// AtomicLoad emits an atomic i64 load from ptr.
func (b *Builder) AtomicLoad(order MemOrder, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpAtomicLoad, Ty: I64, Order: order, Args: []Value{ptr}})
}

// AtomicStore emits an atomic i64 store of val to ptr.
func (b *Builder) AtomicStore(order MemOrder, val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpAtomicStore, Ty: Void, StoreTy: I64, Order: order, Args: []Value{val, ptr}})
}

// AtomicRMW emits an atomic read-modify-write on ptr; the result is the
// previous value.
func (b *Builder) AtomicRMW(kind RMWKind, val, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpAtomicRMW, Ty: I64, Order: OrderSeqCst, RMWK: kind, Args: []Value{val, ptr}})
}

// AtomicCAS emits an atomic compare-and-swap on ptr; the result is the
// previous value (the swap happened iff it equals expect).
func (b *Builder) AtomicCAS(expect, nv, ptr Value) *Instr {
	return b.emit(&Instr{Op: OpAtomicCAS, Ty: I64, Order: OrderSeqCst, Args: []Value{expect, nv, ptr}})
}
