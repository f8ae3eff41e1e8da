package ir

import "fmt"

// Op enumerates the instruction opcodes.
type Op uint8

// The instruction opcodes.
const (
	OpInvalid Op = iota

	// Memory.
	OpAlloca  // %p = alloca T            (stack slot, volatile)
	OpLoad    // %v = load T, ptr %p
	OpStore   // store T %v, ptr %p
	OpNTStore // ntstore T %v, ptr %p     (non-temporal: bypasses cache, weakly ordered)
	OpPtrAdd  // %q = ptradd ptr %p, %i * scale + disp

	// Integer arithmetic and logic (i8/i64).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpAShr

	// Comparisons (result i1).
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe

	// Conversions.
	OpZExt     // widen integer (i1/i8 -> i64)
	OpTrunc    // narrow integer (i64 -> i8/i1)
	OpPtrToInt // ptr -> i64
	OpIntToPtr // i64 -> ptr

	// Control flow.
	OpCall // %v = call @f(args...)   (direct calls only)
	OpBr   // br i1 %c, ^then, ^else
	OpJmp  // jmp ^dest
	OpRet  // ret [T %v]

	// Persistence primitives.
	OpFlush // flush clwb|clflushopt|clflush, ptr %p
	OpFence // fence sfence|mfence

	// Concurrency. Threads are spawned per call (the result is a thread
	// handle), joined exactly once, and communicate through atomics on
	// i64-sized cells. Atomic stores to PM are tracked like regular PM
	// stores — atomicity orders visibility between threads, it does not
	// persist anything (that still takes flush + fence).
	OpSpawn       // %t = spawn @f(args...)
	OpJoin        // %r = join i64 %t
	OpAtomicLoad  // %v = atomicload acquire|seqcst i64, ptr %p
	OpAtomicStore // atomicstore release|seqcst i64 %v, ptr %p
	OpAtomicRMW   // %old = atomicrmw add|xchg seqcst i64 %v, ptr %p
	OpAtomicCAS   // %old = atomiccas seqcst i64 %expect, i64 %new, ptr %p

	numOps
)

// NumOps is the number of opcodes (including OpInvalid) — the size of a
// dense per-opcode counter array.
const NumOps = int(numOps)

var opNames = [...]string{
	OpInvalid:  "invalid",
	OpAlloca:   "alloca",
	OpLoad:     "load",
	OpStore:    "store",
	OpNTStore:  "ntstore",
	OpPtrAdd:   "ptradd",
	OpAdd:      "add",
	OpSub:      "sub",
	OpMul:      "mul",
	OpSDiv:     "sdiv",
	OpSRem:     "srem",
	OpAnd:      "and",
	OpOr:       "or",
	OpXor:      "xor",
	OpShl:      "shl",
	OpAShr:     "ashr",
	OpEq:       "eq",
	OpNe:       "ne",
	OpLt:       "lt",
	OpLe:       "le",
	OpGt:       "gt",
	OpGe:       "ge",
	OpZExt:     "zext",
	OpTrunc:    "trunc",
	OpPtrToInt: "ptrtoint",
	OpIntToPtr: "inttoptr",
	OpCall:     "call",
	OpBr:       "br",
	OpJmp:      "jmp",
	OpRet:      "ret",
	OpFlush:    "flush",
	OpFence:    "fence",

	OpSpawn:       "spawn",
	OpJoin:        "join",
	OpAtomicLoad:  "atomicload",
	OpAtomicStore: "atomicstore",
	OpAtomicRMW:   "atomicrmw",
	OpAtomicCAS:   "atomiccas",
}

func (op Op) String() string {
	if op <= OpInvalid || op >= numOps {
		return fmt.Sprintf("op(%d)", int(op))
	}
	return opNames[op]
}

// IsBinary reports whether op is a two-operand arithmetic/logic operation.
func (op Op) IsBinary() bool { return op >= OpAdd && op <= OpAShr }

// IsCmp reports whether op is a comparison.
func (op Op) IsCmp() bool { return op >= OpEq && op <= OpGe }

// IsCast reports whether op is a conversion.
func (op Op) IsCast() bool { return op >= OpZExt && op <= OpIntToPtr }

// IsTerminator reports whether op ends a basic block.
func (op Op) IsTerminator() bool { return op == OpBr || op == OpJmp || op == OpRet }

// IsStoreLike reports whether op writes memory through a pointer operand:
// store, ntstore, and the atomic writes (atomicstore, atomicrmw,
// atomiccas). StorePtr returns that operand.
func (op Op) IsStoreLike() bool {
	switch op {
	case OpStore, OpNTStore, OpAtomicStore, OpAtomicRMW, OpAtomicCAS:
		return true
	}
	return false
}

// FlushKind selects the cache-flush instruction flavour. CLFLUSH is
// strongly ordered with respect to other memory operations; CLFLUSHOPT and
// CLWB are weakly ordered and require a subsequent fence for durability
// ordering. CLWB retains the line in cache (preferred for performance).
type FlushKind uint8

// The flush flavours.
const (
	CLWB FlushKind = iota
	CLFLUSHOPT
	CLFLUSH
)

func (k FlushKind) String() string {
	switch k {
	case CLWB:
		return "clwb"
	case CLFLUSHOPT:
		return "clflushopt"
	case CLFLUSH:
		return "clflush"
	}
	return fmt.Sprintf("flushkind(%d)", int(k))
}

// Ordered reports whether the flush flavour is strongly ordered (CLFLUSH)
// and hence does not require a trailing fence for durability ordering.
func (k FlushKind) Ordered() bool { return k == CLFLUSH }

// FenceKind selects the fence instruction flavour. SFENCE orders stores
// and weakly-ordered flushes; MFENCE additionally orders loads.
type FenceKind uint8

// The fence flavours.
const (
	SFENCE FenceKind = iota
	MFENCE
)

func (k FenceKind) String() string {
	switch k {
	case SFENCE:
		return "sfence"
	case MFENCE:
		return "mfence"
	}
	return fmt.Sprintf("fencekind(%d)", int(k))
}

// MemOrder is the memory ordering of an atomic operation. The simulator
// runs threads one at a time (sequential consistency by construction),
// so the orders do not change execution today; they are carried so the
// IR states intent and so a weaker scheduler can honor them later.
type MemOrder uint8

// The memory orders.
const (
	OrderSeqCst MemOrder = iota
	OrderAcquire
	OrderRelease
)

func (o MemOrder) String() string {
	switch o {
	case OrderSeqCst:
		return "seqcst"
	case OrderAcquire:
		return "acquire"
	case OrderRelease:
		return "release"
	}
	return fmt.Sprintf("memorder(%d)", int(o))
}

// RMWKind selects the read-modify-write operation of an OpAtomicRMW.
type RMWKind uint8

// The RMW flavours.
const (
	RMWAdd RMWKind = iota
	RMWXchg
)

func (k RMWKind) String() string {
	switch k {
	case RMWAdd:
		return "add"
	case RMWXchg:
		return "xchg"
	}
	return fmt.Sprintf("rmwkind(%d)", int(k))
}

// Loc is a source location in the front-end language, carried through
// lowering so that traces and fixes can be reported in source terms.
type Loc struct {
	File string
	Line int
}

// IsZero reports whether the location is unset.
func (l Loc) IsZero() bool { return l.File == "" && l.Line == 0 }

func (l Loc) String() string {
	if l.IsZero() {
		return "<unknown>"
	}
	return fmt.Sprintf("%s:%d", l.File, l.Line)
}

// Instr is a single IR instruction. A uniform representation (opcode plus
// operand slice) keeps cloning, printing, parsing and interpretation
// simple; opcode-specific fields are only meaningful for their opcode.
//
// Every parse, lowering and clone allocates one Instr per instruction, so
// it is kept at 104 bytes: the one-byte opcode and kinds share one word,
// the opcode-specific operand lives in one field read through accessors
// (AllocTy, StoreTy, Scale, Disp, Callee, Succs), the location is a
// shared pointer read through Loc, and ID and Slot are 32-bit.
type Instr struct {
	Op     Op
	FlushK FlushKind // OpFlush
	FenceK FenceKind // OpFence
	Order  MemOrder  // atomic ops: memory ordering
	RMWK   RMWKind   // OpAtomicRMW

	Name string // result name without '%'; empty for void results
	Ty   Type   // result type; for load, the loaded type; void if none

	Args []Value // operands

	// ext is the opcode-specific operand. No opcode has two, so they
	// share one field:
	//   - OpAlloca: the allocated layout (a Type);
	//   - store, ntstore, atomicstore: the stored type (a Type);
	//   - OpPtrAdd: *ptrOffsets, never written through, so clones
	//     share it, and so do consecutive parsed ptradds;
	//   - OpCall, OpSpawn: the callee (*Func);
	//   - OpBr: *[2]*Block (then, else); OpJmp: *[1]*Block (dest).
	ext any

	// loc is the source location the instruction was lowered from (nil
	// if unknown). It is never written through, so instructions lowered
	// from one line, and clones, share it.
	loc *Loc

	// ID is a stable per-function instruction number assigned by
	// (*Func).Renumber; traces refer to instructions by (function, ID).
	ID int32
	// Slot is the dense register-file index of the result, assigned by
	// Renumber (-1 for void results).
	Slot int32

	blk *Block
}

// Loc returns the source location the instruction was lowered from (the
// zero Loc if unknown).
func (in *Instr) Loc() Loc {
	if in.loc == nil {
		return Loc{}
	}
	return *in.loc
}

// SetLoc sets the source location the instruction was lowered from.
func (in *Instr) SetLoc(l Loc) {
	if l.IsZero() {
		in.loc = nil
		return
	}
	in.loc = &l
}

// ptrOffsets are an OpPtrAdd's constants: %q = base + index*scale + disp.
type ptrOffsets struct{ scale, disp int64 }

// Type implements Value. Void-result instructions must not be used as
// operands; the verifier enforces this.
func (in *Instr) Type() Type { return in.Ty }

// OperandString implements Value.
func (in *Instr) OperandString() string { return operandString(in) }

// Block returns the containing basic block (nil if detached).
func (in *Instr) Block() *Block { return in.blk }

// HasResult reports whether the instruction produces a value.
func (in *Instr) HasResult() bool {
	return in.Ty != nil && in.Ty != Void
}

// AllocTy returns an alloca's allocated layout (nil for other opcodes).
func (in *Instr) AllocTy() Type {
	if in.Op != OpAlloca {
		return nil
	}
	t, _ := in.ext.(Type)
	return t
}

// StoreTy returns the stored type of a store, ntstore or atomicstore
// (nil for other opcodes).
func (in *Instr) StoreTy() Type {
	if in.Op != OpStore && in.Op != OpNTStore && in.Op != OpAtomicStore {
		return nil
	}
	t, _ := in.ext.(Type)
	return t
}

// SetAllocTy sets an alloca's allocated layout.
func (in *Instr) SetAllocTy(t Type) { in.ext = t }

// SetStoreTy sets the stored type of a store, ntstore or atomicstore.
func (in *Instr) SetStoreTy(t Type) { in.ext = t }

// Scale returns a ptradd's index scale (0 for other opcodes).
func (in *Instr) Scale() int64 {
	if o, ok := in.ext.(*ptrOffsets); ok {
		return o.scale
	}
	return 0
}

// Disp returns a ptradd's displacement (0 for other opcodes).
func (in *Instr) Disp() int64 {
	if o, ok := in.ext.(*ptrOffsets); ok {
		return o.disp
	}
	return 0
}

// SetOffsets sets a ptradd's index scale and displacement.
func (in *Instr) SetOffsets(scale, disp int64) { in.ext = &ptrOffsets{scale, disp} }

// Callee returns the function a call or spawn targets (nil for other
// opcodes).
func (in *Instr) Callee() *Func {
	f, _ := in.ext.(*Func)
	return f
}

// SetCallee retargets a call or spawn to f in place, marking the
// containing function edited (see Func's decoded translation).
func (in *Instr) SetCallee(f *Func) {
	in.ext = f
	if in.blk != nil {
		in.blk.fn.mutated()
	}
}

// Succs returns a branch's successors: then and else for OpBr, the
// destination for OpJmp, none for other opcodes. The slice aliases the
// instruction, so storing into it retargets the branch.
func (in *Instr) Succs() []*Block {
	switch s := in.ext.(type) {
	case *[2]*Block:
		return s[:]
	case *[1]*Block:
		return s[:]
	}
	return nil
}

// succArray returns the ext of a branch whose one or two successors
// are s, sharing s's array.
func succArray(s []*Block) any {
	if len(s) == 2 {
		return (*[2]*Block)(s)
	}
	return (*[1]*Block)(s)
}

// SetSuccs sets a branch's successors: then and else for OpBr, the
// destination for OpJmp. It panics on more than two.
func (in *Instr) SetSuccs(succs ...*Block) {
	switch len(succs) {
	case 0:
		in.ext = nil
	case 1:
		in.ext = &[1]*Block{succs[0]}
	case 2:
		in.ext = &[2]*Block{succs[0], succs[1]}
	default:
		panic(fmt.Sprintf("ir: %d successors", len(succs)))
	}
}

// StorePtr returns the address operand of a store-like instruction (see
// Op.IsStoreLike): the last operand of every form.
func (in *Instr) StorePtr() Value {
	if !in.Op.IsStoreLike() {
		panic("ir: StorePtr on " + in.Op.String())
	}
	return in.Args[len(in.Args)-1]
}

// StoreVal returns the value operand of a store-like instruction
// (store, ntstore, atomicstore).
func (in *Instr) StoreVal() Value {
	if in.Op != OpStore && in.Op != OpNTStore && in.Op != OpAtomicStore {
		panic("ir: StoreVal on " + in.Op.String())
	}
	return in.Args[0]
}
