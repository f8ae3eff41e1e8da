package ir

// Dominators computes the dominator sets of a function's blocks with the
// classic iterative dataflow algorithm: dom(entry) = {entry}; for every
// other block, dom(b) = {b} ∪ ⋂ dom(preds). The verifier uses it to check
// that definitions dominate uses (the property the interpreter relies on
// when it reads register slots without initialization).
type Dominators struct {
	fn    *Func
	index scratchMap[*Block, int]
	// dom[i] is the set of block indices dominating block i, as a bitset;
	// every set is a window of slab.
	dom  []bitset
	slab []uint64
	// Scratch kept for the next compute: block i's predecessors are
	// preds[predAt[i]:predAt[i+1]], and work is the set being recomputed.
	predAt []int
	preds  []int
	work   bitset
}

type bitset []uint64

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) has(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }

func (b bitset) fill() {
	for i := range b {
		b[i] = ^uint64(0)
	}
}

// intersectWith intersects b with o in place and reports whether b changed.
func (b bitset) intersectWith(o bitset) bool {
	changed := false
	for i := range b {
		nv := b[i] & o[i]
		if nv != b[i] {
			b[i] = nv
			changed = true
		}
	}
	return changed
}

// compute analyzes fn's CFG into d, reusing the storage of d's previous
// analysis: the verifier keeps one Dominators for a whole module.
func (d *Dominators) compute(fn *Func) {
	n := len(fn.Blocks)
	w := (n + 63) / 64
	d.fn = fn
	index := d.index.reset(n)
	for i, b := range fn.Blocks {
		index[b] = i
	}
	// Predecessor lists in one slab: count each block's, turn the counts
	// into list ends, then fill back to front, leaving every entry of
	// predAt at its list's start and each list in block order.
	d.predAt = resize(d.predAt, n+1)
	clear(d.predAt)
	for _, b := range fn.Blocks {
		if term := b.Terminator(); term != nil {
			for _, s := range term.Succs() {
				d.predAt[index[s]]++
			}
		}
	}
	for i := 1; i <= n; i++ {
		d.predAt[i] += d.predAt[i-1]
	}
	d.preds = resize(d.preds, d.predAt[n])
	for i := n - 1; i >= 0; i-- {
		if term := fn.Blocks[i].Terminator(); term != nil {
			succs := term.Succs()
			for k := len(succs) - 1; k >= 0; k-- {
				j := index[succs[k]]
				d.predAt[j]--
				d.preds[d.predAt[j]] = i
			}
		}
	}
	d.slab = resize(d.slab, n*w)
	d.dom = resize(d.dom, n)
	for i := range d.dom {
		d.dom[i] = d.slab[i*w : (i+1)*w : (i+1)*w]
		if i == 0 {
			clear(d.dom[i])
			d.dom[i].set(0)
		} else {
			d.dom[i].fill()
		}
	}
	d.work = resize(d.work, w)
	changed := true
	for changed {
		changed = false
		for i := 1; i < n; i++ {
			preds := d.preds[d.predAt[i]:d.predAt[i+1]]
			if len(preds) == 0 {
				// Unreachable from the entry: keep "dominated by all"
				// (vacuously true; such blocks never execute).
				continue
			}
			nv := d.work
			nv.fill()
			for _, p := range preds {
				nv.intersectWith(d.dom[p])
			}
			nv.set(i)
			// Sets only shrink, so intersecting with the recomputed set
			// both updates and detects change.
			if d.dom[i].intersectWith(nv) {
				changed = true
			}
		}
	}
}

// Dominates reports whether block a dominates block b.
func (d *Dominators) Dominates(a, b *Block) bool {
	ia, ok := d.index.m[a]
	if !ok {
		return false
	}
	ib, ok := d.index.m[b]
	if !ok {
		return false
	}
	return d.dom[ib].has(ia)
}

// dominance checks that every instruction-result operand is defined
// in a position that dominates its use.
func (v *verifier) dominance(f *Func) error {
	doms := &v.doms
	doms.compute(f)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				db := def.Block()
				switch {
				case db == b:
					if p := v.position(def); p < 0 || p >= i {
						return &domError{f, in, def, "use precedes definition in the same block"}
					}
				case !doms.Dominates(db, b):
					return &domError{f, in, def, "definition does not dominate use"}
				}
			}
		}
	}
	return nil
}

type domError struct {
	f        *Func
	use, def *Instr
	msg      string
}

func (e *domError) Error() string {
	return "@" + e.f.Name + ": " + FormatInstr(e.use) + " uses %" + e.def.Name + ": " + e.msg
}
