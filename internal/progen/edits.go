package progen

import (
	"fmt"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// This file generates *edit sequences*: a deterministic layered module
// plus a stream of small, realistic source edits applied to it in place.
// It is the workload the incremental summary store is benchmarked and
// smoke-tested against — an editor loop where one function changes and
// everything else should replay from cache.

// LayeredConfig bounds the layered module: Leaves store helpers with
// substantial straight-line bodies, Mids fan out over the leaves, and
// main drives every mid. Zero fields take the defaults.
type LayeredConfig struct {
	// Leaves is the number of leaf store helpers (default 40).
	Leaves int
	// Mids is the number of mid-tier functions calling leaves (default 10).
	Mids int
	// LeafOps is the number of persisted stores per leaf body (default 24);
	// it scales how much analysis work one leaf is worth.
	LeafOps int
	// PMCells is the number of persistent 8-slot arrays (default 4).
	PMCells int
}

// DefaultLayeredConfig returns the bench/smoke scale: 40 leaves + 10 mids
// + main = 51 functions.
func DefaultLayeredConfig() LayeredConfig {
	return LayeredConfig{Leaves: 40, Mids: 10, LeafOps: 24, PMCells: 4}
}

func (cfg *LayeredConfig) normalize() {
	d := DefaultLayeredConfig()
	if cfg.Leaves <= 0 {
		cfg.Leaves = d.Leaves
	}
	if cfg.Mids <= 0 {
		cfg.Mids = d.Mids
	}
	if cfg.LeafOps <= 0 {
		cfg.LeafOps = d.LeafOps
	}
	if cfg.PMCells <= 0 {
		cfg.PMCells = d.PMCells
	}
}

func leafName(i int) string { return fmt.Sprintf("leaf%d", i) }
func midName(i int) string  { return fmt.Sprintf("mid%d", i) }

// Layered builds the deterministic layered module. Unlike Generate it
// takes no seed: the same config always yields the same module, so a
// cold analysis and a warm re-analysis of an edited copy are comparable.
// Leaves persist correctly (store+flush, one trailing fence); main holds
// one deliberate unflushed store so the analysis always has a report to
// reproduce byte-identically.
func Layered(cfg LayeredConfig) *ir.Module {
	cfg.normalize()
	m := ir.NewModule("progen-layered")
	for _, d := range interp.StdDecls() {
		m.AddFunc(d)
	}
	for i := 0; i < cfg.PMCells; i++ {
		m.AddGlobal(&ir.Global{Name: fmt.Sprintf("cell%d", i), Elem: ir.Array(ir.I64, 8), PM: true})
	}
	m.AddGlobal(&ir.Global{Name: "vol", Elem: ir.Array(ir.I64, 8)})

	leaves := make([]*ir.Func, cfg.Leaves)
	for i := range leaves {
		fn := ir.NewFunc(leafName(i), ir.Void,
			&ir.Param{Name: "p", Ty: ir.Ptr}, &ir.Param{Name: "v", Ty: ir.I64})
		m.AddFunc(fn)
		b := ir.NewBuilder(fn)
		persist := func(k, delta int) {
			slot := b.PtrAdd(fn.Params[0], ir.ConstInt(int64((k+delta)%8)), 8, 0)
			val := b.Bin(ir.OpAdd, ir.I64, fn.Params[1], ir.ConstInt(int64(i*cfg.LeafOps+k+delta)))
			b.Store(ir.I64, val, slot)
			b.Flush(ir.CLWB, slot)
		}
		for k := 0; k < cfg.LeafOps; k++ {
			b.SetLoc(ir.Loc{File: "layered.pmc", Line: 1000 + i*100 + k})
			if k%3 != 0 {
				// A diamond: real leaf bodies branch, and merge points are
				// what make the flow analysis worth caching.
				cond := b.Cmp(ir.OpLt, fn.Params[1], ir.ConstInt(int64(k)))
				then := b.NewBlock("then")
				els := b.NewBlock("else")
				merge := b.NewBlock("merge")
				b.Br(cond, then, els)
				b.SetBlock(then)
				persist(k, 0)
				b.Jmp(merge)
				b.SetBlock(els)
				persist(k, 1)
				b.Jmp(merge)
				b.SetBlock(merge)
			} else {
				persist(k, 0)
			}
		}
		b.Fence(ir.SFENCE)
		b.Ret(nil)
		fn.Renumber()
		leaves[i] = fn
	}

	fan := cfg.Leaves / cfg.Mids
	if fan < 1 {
		fan = 1
	}
	mids := make([]*ir.Func, cfg.Mids)
	for j := range mids {
		fn := ir.NewFunc(midName(j), ir.Void,
			&ir.Param{Name: "p", Ty: ir.Ptr}, &ir.Param{Name: "v", Ty: ir.I64})
		m.AddFunc(fn)
		b := ir.NewBuilder(fn)
		b.SetLoc(ir.Loc{File: "layered.pmc", Line: 100 + j})
		for t := 0; t < fan; t++ {
			callee := leaves[(j*fan+t)%cfg.Leaves]
			v := b.Bin(ir.OpAdd, ir.I64, fn.Params[1], ir.ConstInt(int64(t)))
			b.Call(callee, fn.Params[0], v)
		}
		// Every mid also shares leaf 0, so one leaf edit that changes its
		// summary invalidates more than one caller.
		b.Call(leaves[0], fn.Params[0], fn.Params[1])
		b.Ret(nil)
		fn.Renumber()
		mids[j] = fn
	}

	main := ir.NewFunc("main", ir.I64)
	m.AddFunc(main)
	b := ir.NewBuilder(main)
	for j, mid := range mids {
		b.SetLoc(ir.Loc{File: "layered.pmc", Line: j + 1})
		b.Call(mid, m.Global(fmt.Sprintf("cell%d", j%cfg.PMCells)), ir.ConstInt(int64(j)))
	}
	// One deliberate durability bug so reports are non-empty.
	b.SetLoc(ir.Loc{File: "layered.pmc", Line: 90})
	bare := b.PtrAdd(m.Global("cell0"), ir.ConstInt(7), 8, 0)
	b.Store(ir.I64, ir.ConstInt(41), bare)
	b.Call(m.Func("pm_checkpoint"))
	sum := ir.Value(ir.ConstInt(0))
	for i := 0; i < cfg.PMCells; i++ {
		base := m.Global(fmt.Sprintf("cell%d", i))
		for s := 0; s < 8; s++ {
			slot := b.PtrAdd(base, ir.ConstInt(int64(s)), 8, 0)
			v := b.Load(ir.I64, slot)
			mixed := b.Bin(ir.OpMul, ir.I64, sum, ir.ConstInt(31))
			sum = b.Bin(ir.OpAdd, ir.I64, mixed, v)
		}
	}
	b.Ret(sum)
	main.Renumber()

	if err := ir.Verify(m); err != nil {
		panic(fmt.Sprintf("progen: layered config %+v produced an invalid module: %v", cfg, err))
	}
	return m
}

// EditKind classifies one simulated source edit.
type EditKind int

const (
	// EditValue changes a stored constant inside the target function.
	// Its content hash changes — the function itself re-analyzes — but
	// its persistency summary does not, so every caller replays from
	// cache (the summary-neutral fast path).
	EditValue EditKind = iota
	// EditDeadLocal appends a store to volatile memory before the return:
	// a bigger body change that is still summary-neutral.
	EditDeadLocal
	// EditAddPersist appends an unflushed store through the pointer
	// parameter: the function's summary changes, so its transitive
	// callers' cache keys change too and the whole chain re-analyzes.
	EditAddPersist
)

func (k EditKind) String() string {
	switch k {
	case EditValue:
		return "value"
	case EditDeadLocal:
		return "dead-local"
	case EditAddPersist:
		return "add-persist"
	}
	return fmt.Sprintf("EditKind(%d)", int(k))
}

// EditStep is one edit: a kind applied to a named function.
type EditStep struct {
	Kind   EditKind
	Target string
}

func (e EditStep) String() string { return e.Kind.String() + "@" + e.Target }

// Edits returns the deterministic edit sequence for a Layered(cfg)
// module: summary-neutral edits on scattered leaves with one
// summary-changing edit in the middle, the mix an editing session
// produces. Only tests replay it (the progen warm ≡ cold suite and the
// core merge-invariant test), so it lives here once.
func Edits(cfg LayeredConfig) []EditStep {
	cfg.normalize()
	pick := func(i int) string { return leafName(i % cfg.Leaves) }
	return []EditStep{
		{EditValue, pick(1)},
		{EditDeadLocal, pick(cfg.Leaves / 2)},
		{EditValue, pick(cfg.Leaves - 1)},
		{EditAddPersist, pick(cfg.Leaves / 3)},
		{EditValue, pick(2)},
		{EditDeadLocal, pick(2*cfg.Leaves/3 + 1)},
	}
}

// ApplyEdit mutates m in place according to step, keeping the module
// verifier-clean. The target function is renumbered; nothing else moves.
func ApplyEdit(m *ir.Module, step EditStep) error {
	fn := m.Func(step.Target)
	if fn == nil || fn.IsDecl() {
		return fmt.Errorf("progen: edit target @%s not found or has no body", step.Target)
	}
	switch step.Kind {
	case EditValue:
		for _, b := range fn.Blocks {
			for _, in := range b.Instrs {
				if !in.Op.IsBinary() {
					continue
				}
				for i, arg := range in.Args {
					if c, ok := arg.(*ir.Const); ok && c.Ty == ir.I64 {
						in.Args[i] = ir.ConstInt(c.Val + 1)
						fn.Renumber()
						return verifyEdited(m, step)
					}
				}
			}
		}
		return fmt.Errorf("progen: %s: @%s has no i64 constant operand to edit", step, step.Target)
	case EditDeadLocal, EditAddPersist:
		last := fn.Blocks[len(fn.Blocks)-1]
		ret := last.Terminator()
		if ret == nil {
			return fmt.Errorf("progen: %s: @%s last block lacks a terminator", step, step.Target)
		}
		var base ir.Value
		if step.Kind == EditDeadLocal {
			g := m.Global("vol")
			if g == nil {
				return fmt.Errorf("progen: %s: module has no @vol global", step)
			}
			base = g
		} else {
			if len(fn.Params) == 0 || fn.Params[0].Ty != ir.Ptr {
				return fmt.Errorf("progen: %s: @%s has no pointer parameter", step, step.Target)
			}
			base = fn.Params[0]
		}
		var val ir.Value = ir.ConstInt(7)
		if len(fn.Params) > 1 && fn.Params[1].Ty == ir.I64 {
			val = fn.Params[1]
		}
		slot := &ir.Instr{Op: ir.OpPtrAdd, Ty: ir.Ptr, Name: fmt.Sprintf("edit%d", fn.NumInstrs()),
			Args: []ir.Value{base, ir.ConstInt(5)}}
		slot.SetOffsets(8, 0)
		slot.SetLoc(ret.Loc())
		st := &ir.Instr{Op: ir.OpStore, Ty: ir.Void, Args: []ir.Value{val, slot}}
		st.SetStoreTy(ir.I64)
		st.SetLoc(ret.Loc())
		last.InsertBefore(ret, slot)
		last.InsertBefore(ret, st)
		fn.Renumber()
		return verifyEdited(m, step)
	}
	return fmt.Errorf("progen: unknown edit kind %d", int(step.Kind))
}

func verifyEdited(m *ir.Module, step EditStep) error {
	if err := ir.Verify(m); err != nil {
		return fmt.Errorf("progen: %s broke the module: %w", step, err)
	}
	return nil
}
