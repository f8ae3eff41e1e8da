package alias

import (
	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// Marks classifies pointer values as "PM" or "not PM" for the hoisting
// heuristic (§4.3: "The heuristic first marks all pointers as PM or not
// PM..."). The paper evaluates two implementations that produced identical
// fixes on every target (§6.1): Full-AA derives marks from the
// whole-program points-to solution, Trace-AA derives them from the bug
// finder trace alone.
type Marks struct {
	// Name identifies the marking strategy ("full-aa" or "trace-aa").
	Name string

	pm    func(v ir.Value) bool
	nonPM func(v ir.Value) bool
}

// PM reports whether v is marked as a persistent-memory pointer.
func (m *Marks) PM(v ir.Value) bool { return m.pm(v) }

// NonPM reports whether v is marked as a volatile pointer.
func (m *Marks) NonPM(v ir.Value) bool { return m.nonPM(v) }

// FullMarks marks pointers from the points-to solution: a pointer is PM if
// it may reference a PM object and not-PM if it may reference a volatile
// object (both can hold for pointers like Listing 6's addr).
func FullMarks(a *Analysis) *Marks {
	return &Marks{
		Name:  "full-aa",
		pm:    a.MayPointToPM,
		nonPM: a.MayPointToNonPM,
	}
}

// TraceMarks marks pointers from the trace rather than from static
// allocator knowledge: the persistent objects are exactly the allocation
// sites the bug-finder trace observed creating PM (pm_alloc/pm_root call
// sites and persistent globals, which pmemcheck-class tools know as
// registered pool regions). A pointer is PM-marked if it may point to an
// observed-PM object and not-PM-marked if it may point to any other
// (non-opaque) object. On programs whose PM allocation sites all execute
// under the test workload this coincides with FullMarks — the §6.1
// observation that both heuristics produce identical fixes.
func TraceMarks(a *Analysis, mod *ir.Module, tr *trace.Trace) *Marks {
	index := newInstrIndex(mod)
	bySite := make(map[ir.Value]*Object)
	for _, o := range a.Objects() {
		bySite[o.Site] = o
	}
	pmObjs := make(map[*Object]bool)
	for _, e := range tr.Events {
		if e.Kind != trace.KindAlloc {
			continue
		}
		if e.Sym != "" {
			if g := mod.Global(e.Sym); g != nil {
				if o := bySite[g]; o != nil {
					pmObjs[o] = true
				}
			}
			continue
		}
		if in := index.lookup(e.Site()); in != nil {
			if o := bySite[in]; o != nil {
				pmObjs[o] = true
			}
		}
	}
	return &Marks{
		Name: "trace-aa",
		pm: func(v ir.Value) bool {
			for _, o := range a.PointsTo(v) {
				if pmObjs[o] {
					return true
				}
			}
			return false
		},
		nonPM: func(v ir.Value) bool {
			for _, o := range a.PointsTo(v) {
				if !pmObjs[o] && o.Kind != ObjExtern {
					return true
				}
			}
			return false
		},
	}
}

// instrIndex resolves trace frames to instructions in O(1).
type instrIndex struct {
	mod   *ir.Module
	byFun map[string]map[int]*ir.Instr
}

func newInstrIndex(mod *ir.Module) *instrIndex {
	ix := &instrIndex{mod: mod, byFun: make(map[string]map[int]*ir.Instr)}
	for _, f := range mod.Funcs {
		byID := make(map[int]*ir.Instr, f.NumInstrs())
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				byID[int(in.ID)] = in
			}
		}
		ix.byFun[f.Name] = byID
	}
	return ix
}

func (ix *instrIndex) lookup(f trace.Frame) *ir.Instr {
	byID, ok := ix.byFun[f.Func]
	if !ok {
		return nil
	}
	return byID[f.InstrID]
}
