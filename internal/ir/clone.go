package ir

import "maps"

// CloneFunc deep-copies fn into a new function named newName and registers
// it in fn's module. The clone shares constants, globals and struct types
// with the original (they are immutable at this level) but gets fresh
// parameters, blocks and instructions. Instruction IDs are copied from the
// originals so that trace locations recorded against the original resolve
// to the corresponding instruction in the clone — this is what lets the
// persistent subprogram transformation reuse bug locations inside cloned
// bodies. Call Renumber before re-tracing a module containing clones.
func CloneFunc(fn *Func, newName string) *Func {
	nf := NewFunc(newName, fn.Ret, cloneParams(fn.Params)...)
	nf.nextID = fn.nextID
	var c cloner
	c.body(nf, fn)
	if fn.Mod != nil {
		fn.Mod.AddFunc(nf)
	}
	return nf
}

// CloneModule deep-copies a module by walking it. The daemon clones a
// source's cached compile for every job after the one that cached it, so
// a repair never mutates the master.
//
// Struct types, array types, constants and global initializer bytes are
// shared: nothing mutates them once built. Globals, functions, parameters,
// blocks and instructions are copied, and every operand, callee and
// successor of the copy points into the copy — inserting into or
// rewriting the clone never touches the source.
//
// Instruction IDs and slots are preserved, so trace locations recorded
// against the source resolve in the clone, and the numbering is the one
// ParseModule(Print(m)) would assign: a function renumbered since its
// last structural edit keeps its IDs, slots and fingerprint memo, one
// edited since is renumbered in the clone, and declarations come out as
// freshly declared. The source is only read, so one module may be cloned
// from several goroutines at once.
func CloneModule(m *Module) *Module {
	nm := &Module{
		Name:          m.Name,
		Structs:       append([]*StructType(nil), m.Structs...),
		Globals:       make([]*Global, len(m.Globals)),
		Funcs:         make([]*Func, len(m.Funcs)),
		structsByName: maps.Clone(m.structsByName),
		globalsByName: make(map[string]*Global, len(m.Globals)),
		funcsByName:   make(map[string]*Func, len(m.Funcs)),
	}
	globals := make([]Global, len(m.Globals))
	for i, g := range m.Globals {
		globals[i] = *g
		nm.Globals[i] = &globals[i]
		nm.globalsByName[g.Name] = &globals[i]
	}
	// Every function exists before any body is copied, so calls resolve
	// to the copies whatever the definition order.
	funcs := make([]Func, len(m.Funcs))
	for i, f := range m.Funcs {
		nf := &funcs[i]
		*nf = Func{Name: f.Name, Params: cloneParams(f.Params), Ret: f.Ret, Mod: nm, dirty: true}
		nm.Funcs[i] = nf
		nm.funcsByName[f.Name] = nf
	}
	c := cloner{into: nm}
	for i, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		nf := nm.Funcs[i]
		c.body(nf, f)
		if f.dirty {
			nf.Renumber()
		} else {
			nf.nextID, nf.numSlots, nf.fp, nf.dirty = f.nextID, f.numSlots, f.fp, false
		}
	}
	return nm
}

func cloneParams(ps []*Param) []*Param {
	if len(ps) == 0 {
		return nil
	}
	slab := make([]Param, len(ps))
	out := make([]*Param, len(ps))
	for i, p := range ps {
		slab[i] = *p
		out[i] = &slab[i]
	}
	return out
}

// cloner copies function bodies. Its maps are reused from one function
// to the next, so a module clone allocates them once.
type cloner struct {
	// into is the module whose globals and functions replace the
	// source's by name; nil shares them (CloneFunc).
	into *Module

	src, dst *Func
	// instrs and blocks map src's instructions and blocks to their
	// copies in dst.
	instrs map[*Instr]*Instr
	blocks map[*Block]*Block
}

// body fills dst, whose parameters are already copies of src's, with
// copies of src's blocks and instructions. IDs and slots are copied;
// dst's numbering state is left to the caller.
func (c *cloner) body(dst, src *Func) {
	c.src, c.dst = src, dst
	nInstrs, nArgs, nSuccs := 0, 0, 0
	for _, b := range src.Blocks {
		nInstrs += len(b.Instrs)
		for _, in := range b.Instrs {
			nArgs += len(in.Args)
			nSuccs += len(in.Succs())
		}
	}
	if c.instrs == nil {
		c.instrs = make(map[*Instr]*Instr, nInstrs)
		c.blocks = make(map[*Block]*Block, len(src.Blocks))
	}
	clear(c.instrs)
	clear(c.blocks)
	blocks := make([]Block, len(src.Blocks))
	dst.Blocks = make([]*Block, len(src.Blocks))
	copies := make([]Instr, nInstrs)
	k := 0
	for i, b := range src.Blocks {
		blocks[i] = Block{Name: b.Name, fn: dst}
		dst.Blocks[i] = &blocks[i]
		c.blocks[b] = &blocks[i]
		for _, in := range b.Instrs {
			c.instrs[in] = &copies[k]
			k++
		}
	}
	ptrs := make([]*Instr, nInstrs)
	args := make([]Value, nArgs)
	succs := make([]*Block, nSuccs)
	k = 0
	for i, b := range src.Blocks {
		nb := &blocks[i]
		nb.Instrs = ptrs[k : k+len(b.Instrs) : k+len(b.Instrs)]
		for j, in := range b.Instrs {
			ni := &copies[k]
			*ni = *in
			ni.blk, ni.Args = nb, nil
			if n := len(in.Args); n > 0 {
				ni.Args, args = args[:n:n], args[n:]
				for a, v := range in.Args {
					ni.Args[a] = c.value(v)
				}
			}
			if ss := in.Succs(); len(ss) > 0 {
				var dst []*Block
				dst, succs = succs[:len(ss):len(ss)], succs[len(ss):]
				for s, sb := range ss {
					dst[s] = c.blocks[sb]
				}
				ni.ext = succArray(dst)
			}
			if callee := in.Callee(); callee != nil && c.into != nil {
				if f := c.into.funcsByName[callee.Name]; f != nil {
					ni.ext = f
				}
			}
			nb.Instrs[j] = ni
			k++
		}
	}
}

// value maps an operand of src to its counterpart in dst.
func (c *cloner) value(v Value) Value {
	switch x := v.(type) {
	case *Instr:
		if ni := c.instrs[x]; ni != nil {
			return ni
		}
	case *Param:
		if x.Index < len(c.src.Params) && c.src.Params[x.Index] == x {
			return c.dst.Params[x.Index]
		}
	case *Global:
		if c.into != nil {
			if g := c.into.globalsByName[x.Name]; g != nil {
				return g
			}
		}
	}
	return v
}
