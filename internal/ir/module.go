package ir

import (
	"fmt"
	"sort"
	"strings"
)

// Module is a whole program: struct type definitions, globals and
// functions. Lookups are by name; iteration order is insertion order so
// printing is deterministic.
type Module struct {
	Name    string
	Structs []*StructType
	Globals []*Global
	Funcs   []*Func

	structsByName map[string]*StructType
	globalsByName map[string]*Global
	funcsByName   map[string]*Func
}

// NewModule returns an empty module.
func NewModule(name string) *Module {
	return &Module{
		Name:          name,
		structsByName: make(map[string]*StructType),
		globalsByName: make(map[string]*Global),
		funcsByName:   make(map[string]*Func),
	}
}

// AddStruct registers a struct type definition. It panics on duplicates:
// struct names are interned per module.
func (m *Module) AddStruct(st *StructType) *StructType {
	if _, dup := m.structsByName[st.Name]; dup {
		panic("ir: duplicate struct %" + st.Name)
	}
	m.Structs = append(m.Structs, st)
	m.structsByName[st.Name] = st
	return st
}

// Struct returns the struct type with the given name, or nil.
func (m *Module) Struct(name string) *StructType { return m.structsByName[name] }

// AddGlobal registers a global variable.
func (m *Module) AddGlobal(g *Global) *Global {
	if _, dup := m.globalsByName[g.Name]; dup {
		panic("ir: duplicate global @" + g.Name)
	}
	m.Globals = append(m.Globals, g)
	m.globalsByName[g.Name] = g
	return g
}

// Global returns the global with the given name, or nil.
func (m *Module) Global(name string) *Global { return m.globalsByName[name] }

// AddFunc registers a function (definition or declaration).
func (m *Module) AddFunc(f *Func) *Func {
	if _, dup := m.funcsByName[f.Name]; dup {
		panic("ir: duplicate function @" + f.Name)
	}
	f.Mod = m
	m.Funcs = append(m.Funcs, f)
	m.funcsByName[f.Name] = f
	return f
}

// Func returns the function with the given name, or nil.
func (m *Module) Func(name string) *Func { return m.funcsByName[name] }

// RemoveFunc detaches a function from the module (used by tests and by
// transformation rollback). It is a no-op if the function is absent.
func (m *Module) RemoveFunc(name string) {
	f, ok := m.funcsByName[name]
	if !ok {
		return
	}
	delete(m.funcsByName, name)
	for i, g := range m.Funcs {
		if g == f {
			m.Funcs = append(m.Funcs[:i], m.Funcs[i+1:]...)
			break
		}
	}
}

// NumInstrs returns the total instruction count over all function bodies;
// the benchmark harness uses it to report code-size impact (§6.4).
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}

// SortedFuncNames returns the defined function names in sorted order.
func (m *Module) SortedFuncNames() []string {
	var names []string
	for _, f := range m.Funcs {
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return names
}

// Func is a function definition or declaration. Declarations (external
// builtins like @pm_alloc) have no blocks and are executed by handlers
// registered with the interpreter.
type Func struct {
	Name   string
	Params []*Param
	Ret    Type
	Blocks []*Block
	Mod    *Module

	// nextID feeds Renumber and keeps instruction IDs unique within the
	// function even across insertions.
	nextID int
	// numSlots is the dense value-slot count assigned by Renumber:
	// parameters first, then result-producing instructions. The
	// interpreter sizes its register file from it.
	numSlots int
	// dirty is set by structural mutations and cleared by Renumber, so
	// executors can skip (write-free) renumbering of clean functions and
	// share clean modules across goroutines.
	dirty bool
	// fp memoizes FuncFingerprint for the current body. Structural
	// mutations and Renumber clear it; in-place operand edits must be
	// followed by Renumber before re-fingerprinting (the same contract
	// Renumber's own doc already imposes on passes that change bodies).
	fp string
}

// NewFunc creates a detached function. Use Module.AddFunc to register it.
func NewFunc(name string, ret Type, params ...*Param) *Func {
	for i, p := range params {
		p.Index = i
	}
	return &Func{Name: name, Params: params, Ret: ret, dirty: true}
}

// IsDecl reports whether the function is a body-less declaration.
func (f *Func) IsDecl() bool { return len(f.Blocks) == 0 }

// Entry returns the entry block.
func (f *Func) Entry() *Block {
	if len(f.Blocks) == 0 {
		panic("ir: entry of declaration @" + f.Name)
	}
	return f.Blocks[0]
}

// AddBlock appends a new basic block with the given name.
func (f *Func) AddBlock(name string) *Block {
	b := &Block{Name: name, fn: f}
	f.Blocks = append(f.Blocks, b)
	return b
}

// Block returns the block with the given name, or nil.
func (f *Func) Block(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Renumber assigns sequential IDs to every instruction in block order,
// and dense value slots (parameters first, then result-producing
// instructions) that the interpreter uses as register-file indices.
// Traces and bug reports address instructions as (function name, ID), so
// any pass that inserts instructions must renumber before re-tracing —
// but NOT between trace generation and fix application, because fixes
// resolve trace IDs against the numbering the trace was made with.
func (f *Func) Renumber() {
	id := 0
	slot := len(f.Params)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			in.ID = id
			id++
			if in.HasResult() {
				in.Slot = slot
				slot++
			} else {
				in.Slot = -1
			}
		}
	}
	f.nextID = id
	f.numSlots = slot
	f.dirty = false
	f.fp = ""
}

// NumSlots returns the register-file size assigned by Renumber.
func (f *Func) NumSlots() int { return f.numSlots }

// NeedsRenumber reports whether the function mutated since Renumber.
func (f *Func) NeedsRenumber() bool { return f.dirty }

// mutated records a structural body change: the function needs
// renumbering and any memoized fingerprint is stale.
func (f *Func) mutated() {
	f.dirty = true
	f.fp = ""
}

// InstrByID returns the instruction with the given ID, or nil. IDs are
// only meaningful after Renumber.
func (f *Func) InstrByID(id int) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID == id {
				return in
			}
		}
	}
	return nil
}

// NumInstrs returns the instruction count of the body.
func (f *Func) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// Sig renders the signature, e.g. "@f(%p: ptr, %n: i64) -> i64".
func (f *Func) Sig() string {
	var b strings.Builder
	writeSig(&b, f)
	return b.String()
}

// Block is a basic block: a straight-line instruction sequence ending in a
// terminator.
type Block struct {
	Name   string
	Instrs []*Instr

	fn *Func
}

// Func returns the containing function.
func (b *Block) Func() *Func { return b.fn }

// Append adds an instruction at the end of the block.
func (b *Block) Append(in *Instr) *Instr {
	in.blk = b
	b.fn.mutated()
	b.Instrs = append(b.Instrs, in)
	return in
}

// InsertAfter inserts newIn immediately after pos, which must be in b.
func (b *Block) InsertAfter(pos, newIn *Instr) {
	idx := b.indexOf(pos)
	newIn.blk = b
	b.fn.mutated()
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+2:], b.Instrs[idx+1:])
	b.Instrs[idx+1] = newIn
}

// InsertBefore inserts newIn immediately before pos, which must be in b.
func (b *Block) InsertBefore(pos, newIn *Instr) {
	idx := b.indexOf(pos)
	newIn.blk = b
	b.fn.mutated()
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = newIn
}

// RemoveInstr detaches in from b, which must contain it, and returns the
// index it occupied so InsertAt can restore it (the optimizer's apply/undo
// protocol). The instruction keeps its fields; only the block linkage is
// severed. Callers must not remove an instruction whose result other
// instructions still use.
func (b *Block) RemoveInstr(in *Instr) int {
	idx := b.indexOf(in)
	b.fn.mutated()
	copy(b.Instrs[idx:], b.Instrs[idx+1:])
	b.Instrs[len(b.Instrs)-1] = nil
	b.Instrs = b.Instrs[:len(b.Instrs)-1]
	in.blk = nil
	return idx
}

// InsertAt inserts in at index idx (0 ≤ idx ≤ len), the inverse of
// RemoveInstr.
func (b *Block) InsertAt(idx int, in *Instr) {
	if idx < 0 || idx > len(b.Instrs) {
		panic(fmt.Sprintf("ir: InsertAt index %d out of range in block ^%s", idx, b.Name))
	}
	in.blk = b
	b.fn.mutated()
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[idx+1:], b.Instrs[idx:])
	b.Instrs[idx] = in
}

func (b *Block) indexOf(in *Instr) int {
	for i, x := range b.Instrs {
		if x == in {
			return i
		}
	}
	panic(fmt.Sprintf("ir: instruction %%%s not in block ^%s", in.Name, b.Name))
}

// Terminator returns the final instruction if it is a terminator, else nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	last := b.Instrs[len(b.Instrs)-1]
	if last.Op.IsTerminator() {
		return last
	}
	return nil
}
