// Per-function constraint decomposition: the body walk that used to live
// inline in collect() is split into a *generate* step that produces a
// canonical, module-independent constraint list per function, and an
// *apply* step that replays such a list against the current module. The
// canonical form references values positionally (instruction IDs, arg
// indices, callee parameter indices), so a list generated from one
// module instance applies to any other instance whose function body
// fingerprints equal — which is what lets a daemon-wide constraint cache
// skip the generate step for every function an edit did not touch. Cold
// and warm runs share the apply step, so equal constraint lists produce
// identical analyses by construction.
package alias

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"

	"hippocrates/internal/ir"
)

// ConsKind enumerates the canonical constraint kinds, mirroring the
// cases of the body walk one-to-one.
type ConsKind uint8

// The constraint kinds.
const (
	// CSeedAlloca: the alloca instruction A points to a fresh stack object.
	CSeedAlloca ConsKind = iota
	// CSeedAlloc: the call instruction A points to a fresh heap/PM object
	// (the kind named by Callee: malloc, pm_alloc, pm_root).
	CSeedAlloc
	// CSeedExtern: the inttoptr instruction A points to the shared opaque
	// extern object.
	CSeedExtern
	// CCopy: pts(B) ⊇ pts(A).
	CCopy
	// CLoad: pts(B) ⊇ pts(*A).
	CLoad
	// CStore: pts(*A) ⊇ pts(B).
	CStore
	// CRetCopy: pts(B) ⊇ pts(r) for every value r returned by Callee
	// (resolved against the current module at apply time).
	CRetCopy
)

// VRef references an ir.Value positionally within one function: by
// defining instruction ID, by (instruction ID, argument index), or by
// callee parameter. Operand references resolve through the instruction's
// actual operand slot, so constants and globals resolve to the exact
// value pointer the instruction uses — interning is reproduced verbatim.
type VRef struct {
	// K is the reference kind: 'r' result of instruction ID; 'a' operand
	// Idx of instruction ID; 'P' parameter Idx of callee Name; 0 unused.
	K    byte
	ID   int
	Idx  int
	Name string
}

func refInstr(in *ir.Instr) VRef        { return VRef{K: 'r', ID: in.ID} }
func refArg(in *ir.Instr, idx int) VRef { return VRef{K: 'a', ID: in.ID, Idx: idx} }
func refCalleeParam(name string, idx int) VRef {
	return VRef{K: 'P', Name: name, Idx: idx}
}

// Cons is one canonical constraint.
type Cons struct {
	Kind   ConsKind
	A, B   VRef
	Callee string // CSeedAlloc / CRetCopy
}

// genConstraints walks one function body and produces its canonical
// constraint list — the exact constraint cases collect() used to emit
// inline, in the same order.
func genConstraints(f *ir.Func) []Cons {
	var out []Cons
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpAlloca:
				out = append(out, Cons{Kind: CSeedAlloca, A: refInstr(in)})
			case ir.OpPtrAdd:
				// Field-insensitive: derived pointers alias the base.
				out = append(out, Cons{Kind: CCopy, A: refArg(in, 0), B: refInstr(in)})
			case ir.OpLoad:
				if ir.IsPtr(in.Ty) {
					out = append(out, Cons{Kind: CLoad, A: refArg(in, 0), B: refInstr(in)})
				}
			case ir.OpStore, ir.OpNTStore, ir.OpAtomicStore:
				if ir.IsPtr(in.StoreTy) {
					out = append(out, Cons{Kind: CStore, A: refArg(in, 1), B: refArg(in, 0)})
				}
			case ir.OpSpawn:
				// A spawned thread receives the arguments like a call; it
				// has no pointer result (the handle is an integer).
				for i := range in.Args {
					if ir.IsPtr(in.Callee.Params[i].Ty) {
						out = append(out, Cons{Kind: CCopy, A: refArg(in, i), B: refCalleeParam(in.Callee.Name, i)})
					}
				}
			case ir.OpIntToPtr:
				out = append(out, Cons{Kind: CSeedExtern, A: refInstr(in)})
			case ir.OpCall:
				callee := in.Callee
				if _, isAlloc := allocKind(callee.Name); isAlloc {
					out = append(out, Cons{Kind: CSeedAlloc, A: refInstr(in), Callee: callee.Name})
					continue
				}
				if callee.IsDecl() {
					// memcpy/memset return their destination.
					if (callee.Name == "memcpy" || callee.Name == "memset") && in.HasResult() {
						out = append(out, Cons{Kind: CCopy, A: refArg(in, 0), B: refInstr(in)})
					}
					continue
				}
				for i := range in.Args {
					if ir.IsPtr(callee.Params[i].Ty) {
						out = append(out, Cons{Kind: CCopy, A: refArg(in, i), B: refCalleeParam(callee.Name, i)})
					}
				}
				if in.HasResult() && ir.IsPtr(in.Ty) {
					out = append(out, Cons{Kind: CRetCopy, B: refInstr(in), Callee: callee.Name})
				}
			}
		}
	}
	return out
}

// applyConstraints replays one function's canonical constraint list
// against the current module, resolving every reference to the exact
// value pointers the instructions use. It returns an error when a
// reference does not resolve — which can only happen when the list was
// generated from a different body than f's (a store keyed on the body
// fingerprint never hands such a list out).
func (a *Analysis) applyConstraints(f *ir.Func, cons []Cons) error {
	if len(cons) == 0 {
		return nil
	}
	// IDs are dense after Renumber (the store only hands lists out for
	// renumbered bodies), so a slice beats a map here; the sparse case
	// just falls through to "does not resolve".
	maxID := -1
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID > maxID {
				maxID = in.ID
			}
		}
	}
	byID := make([]*ir.Instr, maxID+1)
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.ID >= 0 {
				byID[in.ID] = in
			}
		}
	}
	lookup := func(id int) *ir.Instr {
		if id < 0 || id >= len(byID) {
			return nil
		}
		return byID[id]
	}
	resolve := func(r VRef) (ir.Value, error) {
		switch r.K {
		case 'r':
			if in := lookup(r.ID); in != nil {
				return in, nil
			}
			return nil, fmt.Errorf("alias: @%s has no instruction %d", f.Name, r.ID)
		case 'a':
			in := lookup(r.ID)
			if in == nil || r.Idx >= len(in.Args) {
				return nil, fmt.Errorf("alias: @%s instruction %d has no arg %d", f.Name, r.ID, r.Idx)
			}
			return in.Args[r.Idx], nil
		case 'P':
			callee := a.mod.Func(r.Name)
			if callee == nil || r.Idx >= len(callee.Params) {
				return nil, fmt.Errorf("alias: no parameter %d of @%s", r.Idx, r.Name)
			}
			return callee.Params[r.Idx], nil
		}
		return nil, fmt.Errorf("alias: bad value reference kind %q", r.K)
	}
	for _, c := range cons {
		switch c.Kind {
		case CSeedAlloca, CSeedAlloc, CSeedExtern:
			v, err := resolve(c.A)
			if err != nil {
				return err
			}
			in, ok := v.(*ir.Instr)
			if !ok {
				return fmt.Errorf("alias: seed target of @%s is not an instruction", f.Name)
			}
			switch c.Kind {
			case CSeedAlloca:
				o := a.newObject(ObjAlloca, in, f, false)
				a.ptsAt(a.node(in))[o.ID] = true
			case CSeedAlloc:
				kind, ok := allocKind(c.Callee)
				if !ok {
					return fmt.Errorf("alias: %q is not an allocator", c.Callee)
				}
				o := a.newObject(kind, in, f, kind == ObjPM)
				a.ptsAt(a.node(in))[o.ID] = true
			case CSeedExtern:
				a.ptsAt(a.node(in))[a.externID] = true
			}
		case CCopy:
			src, err := resolve(c.A)
			if err != nil {
				return err
			}
			dst, err := resolve(c.B)
			if err != nil {
				return err
			}
			a.addCopy(a.node(src), a.node(dst))
		case CLoad:
			p, err := resolve(c.A)
			if err != nil {
				return err
			}
			dst, err := resolve(c.B)
			if err != nil {
				return err
			}
			pn := a.node(p)
			a.loadEdges[pn] = append(a.loadEdges[pn], a.node(dst))
		case CStore:
			p, err := resolve(c.A)
			if err != nil {
				return err
			}
			src, err := resolve(c.B)
			if err != nil {
				return err
			}
			pn := a.node(p)
			a.storeEdges[pn] = append(a.storeEdges[pn], a.node(src))
		case CRetCopy:
			dst, err := resolve(c.B)
			if err != nil {
				return err
			}
			callee := a.mod.Func(c.Callee)
			if callee == nil {
				return fmt.Errorf("alias: no callee @%s", c.Callee)
			}
			dn := a.node(dst)
			for _, src := range returnsOfFunc(a, callee, a.retCache) {
				a.addCopy(src, dn)
			}
		default:
			return fmt.Errorf("alias: bad constraint kind %d", c.Kind)
		}
	}
	return nil
}

// ObjectRef renders one abstract object in its canonical
// module-independent form: globals by name, allocation sites by
// (function, instruction ID), the extern object as "x". Refs are unique
// per object within one analysis (one object per allocation site).
func (a *Analysis) ObjectRef(id int) string {
	o := a.objects[id]
	switch o.Kind {
	case ObjGlobal:
		return "g:" + o.Site.(*ir.Global).Name
	case ObjExtern:
		return "x"
	default:
		in := o.Site.(*ir.Instr)
		return string('a'+byte(o.Kind)) + ":" + o.Func.Name + "#" + strconv.Itoa(in.ID)
	}
}

// buildRefIndex materializes, once per analysis, every object's canonical
// ref, the ref→ID index, and each object's rank in the lexicographic
// order of all refs. The rank lets FuncDigest sort a points-to set by
// comparing two ints instead of building and sorting strings — the hot
// path of a warm incremental run.
func (a *Analysis) buildRefIndex() {
	a.refOnce.Do(func() {
		a.refs = make([]string, len(a.objects))
		order := make([]int, len(a.objects))
		a.refIndex = make(map[string]int, len(a.objects))
		for i := range a.objects {
			a.refs[i] = a.ObjectRef(i)
			order[i] = i
			a.refIndex[a.refs[i]] = i
		}
		sort.Slice(order, func(i, j int) bool { return a.refs[order[i]] < a.refs[order[j]] })
		a.refRank = make([]int, len(a.objects))
		for r, id := range order {
			a.refRank[id] = r
		}
	})
}

// ObjectIDByRef resolves a canonical object ref produced by a previous
// run back to this analysis's object ID.
func (a *Analysis) ObjectIDByRef(ref string) (int, bool) {
	a.buildRefIndex()
	id, ok := a.refIndex[ref]
	return id, ok
}

// FuncDigest hashes the slice of the solved points-to relation that any
// per-function analysis of f can observe: for every parameter and every
// instruction result, whether the value is tracked at all (untracked
// values must be treated as may-point-anywhere) and, if tracked, its
// points-to set in canonical object refs. Two runs in which f digests
// equal answer every alias query about f's values identically — the
// missing ingredient that makes function summaries content-addressable
// (a summary is NOT a function of the body alone: parameter points-to
// sets flow in from callers). Reads the solved relation directly, so it
// does not perturb the Queries() counter.
func (a *Analysis) FuncDigest(f *ir.Func) string {
	a.buildRefIndex()
	// One buffer, one Sum256: streaming tiny writes into a sha256.New()
	// digest and building "p<n>"/"r<n>" tag strings per value dominated
	// warm incremental runs.
	buf := a.digestBuf[:0]
	var ids []int
	writeVal := func(tag byte, idx int, v ir.Value) {
		buf = append(buf, tag)
		buf = binary.AppendUvarint(buf, uint64(idx))
		n, ok := a.nodeOf[v]
		if !ok {
			buf = append(buf, '?')
			return
		}
		// Rank order is lexicographic ref order, so the bytes hashed here
		// are identical to sorting the ref strings themselves.
		ids = ids[:0]
		for o := range a.pts[n] {
			ids = append(ids, o)
		}
		// Points-to sets here are tiny; insertion sort by rank beats
		// sort.Slice's per-call overhead across thousands of values.
		for i := 1; i < len(ids); i++ {
			for j := i; j > 0 && a.refRank[ids[j]] < a.refRank[ids[j-1]]; j-- {
				ids[j], ids[j-1] = ids[j-1], ids[j]
			}
		}
		buf = binary.AppendUvarint(buf, uint64(len(ids)))
		for _, o := range ids {
			r := a.refs[o]
			buf = binary.AppendUvarint(buf, uint64(len(r)))
			buf = append(buf, r...)
		}
	}
	for _, p := range f.Params {
		writeVal('p', p.Index, p)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				writeVal('r', in.ID, in)
			}
		}
	}
	a.digestBuf = buf
	sum := sha256.Sum256(buf)
	return hex.EncodeToString(sum[:])
}
