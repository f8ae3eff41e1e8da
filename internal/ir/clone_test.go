package ir_test

import (
	"fmt"
	"sync"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
)

type namedModule struct {
	name string
	mod  *ir.Module
}

// moduleSet is the equivalence sweep shared by the clone and printer
// tests: every corpus program (sequential and multi-threaded), progen
// seeds 0–249 under the default config and 0–199 under the threaded
// config, and the default layered module. Callers must not mutate it.
var moduleSet = sync.OnceValue(func() []namedModule {
	var out []namedModule
	for _, p := range corpus.All() {
		out = append(out, namedModule{"corpus/" + p.Name, p.MustCompile()})
	}
	for _, p := range corpus.MTPrograms() {
		out = append(out, namedModule{"mt/" + p.Name, p.MustCompile()})
	}
	for s := int64(0); s < 250; s++ {
		out = append(out, namedModule{fmt.Sprintf("progen/%d", s), progen.Generate(s, progen.DefaultConfig())})
	}
	for s := int64(0); s < 200; s++ {
		out = append(out, namedModule{fmt.Sprintf("threaded/%d", s), progen.Generate(s, progen.ThreadedConfig(s))})
	}
	out = append(out, namedModule{"layered", progen.Layered(progen.DefaultLayeredConfig())})
	return out
})

// TestCloneModuleMatchesRoundTrip pins the structural clone to the text
// round-trip it replaced, over the whole module set: same text, same
// numbering, no pointer back into the source, and edits to the clone
// stay in the clone.
func TestCloneModuleMatchesRoundTrip(t *testing.T) {
	for _, nm := range moduleSet() {
		checkClone(t, nm.name, nm.mod)
	}
}

// TestCloneModuleRenumbersDirtySource clones modules whose functions were
// edited without Renumber: the clone must come out numbered as the round
// trip would number it, and the source must stay as it was (dirty).
func TestCloneModuleRenumbersDirtySource(t *testing.T) {
	for _, s := range []int64{1, 2, 3} {
		m := progen.Generate(s, progen.DefaultConfig())
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			// A fence at the top of the entry block shifts every ID.
			entry := f.Entry()
			entry.InsertBefore(entry.Instrs[0], &ir.Instr{Op: ir.OpFence, Ty: ir.Void, FenceK: ir.MFENCE})
			if !f.NeedsRenumber() {
				t.Fatalf("seed %d @%s: insertion left the function clean", s, f.Name)
			}
		}
		checkClone(t, fmt.Sprintf("dirty/%d", s), m)
		for _, f := range m.Funcs {
			if !f.IsDecl() && !f.NeedsRenumber() {
				t.Errorf("dirty/%d: cloning renumbered source @%s", s, f.Name)
			}
		}
	}
}

// TestCloneModuleConcurrent clones one module from several goroutines:
// CloneModule only reads its source (run under -race by make verify).
func TestCloneModuleConcurrent(t *testing.T) {
	m := progen.Layered(progen.DefaultLayeredConfig())
	want := ir.Print(m)
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ir.Print(ir.CloneModule(m)) != want {
				t.Error("concurrent clone prints differently")
			}
		}()
	}
	wg.Wait()
}

func checkClone(t *testing.T, name string, m *ir.Module) {
	t.Helper()
	text := ir.Print(m)
	for _, f := range m.Funcs {
		if !f.IsDecl() {
			ir.FuncFingerprint(f) // memoized: the clone carries the memo over
		}
	}
	c := ir.CloneModule(m)
	if got := ir.Print(c); got != text {
		t.Errorf("%s: Print(CloneModule(m)) differs from Print(m)", name)
		return
	}
	ref, err := ir.ParseModule(text)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(c.Funcs) != len(ref.Funcs) {
		t.Fatalf("%s: clone has %d funcs, round trip %d", name, len(c.Funcs), len(ref.Funcs))
	}
	for i, f := range c.Funcs {
		rf := ref.Funcs[i]
		if f.NumSlots() != rf.NumSlots() || f.NeedsRenumber() != rf.NeedsRenumber() {
			t.Errorf("%s @%s: NumSlots/NeedsRenumber %d/%v, round trip %d/%v",
				name, f.Name, f.NumSlots(), f.NeedsRenumber(), rf.NumSlots(), rf.NeedsRenumber())
		}
		got, want := flatten(f), flatten(rf)
		for k := range got {
			if got[k].ID != want[k].ID || got[k].Slot != want[k].Slot {
				t.Errorf("%s @%s #%d: ID/Slot %d/%d, round trip %d/%d",
					name, f.Name, k, got[k].ID, got[k].Slot, want[k].ID, want[k].Slot)
				break
			}
		}
		if !f.IsDecl() && ir.FuncFingerprint(f) != ir.FuncFingerprint(rf) {
			t.Errorf("%s @%s: fingerprint differs from the round trip's", name, f.Name)
		}
	}
	checkDisjoint(t, name, m, c)

	// An edit to the clone must not show up in the source.
	for _, f := range c.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpStore {
					b.InsertAfter(in, &ir.Instr{Op: ir.OpFlush, Ty: ir.Void, FlushK: ir.CLWB, Args: []ir.Value{in.StorePtr()}})
					if ir.Print(m) != text {
						t.Errorf("%s: inserting a flush into the clone changed the source", name)
					}
					return
				}
			}
		}
	}
}

func flatten(f *ir.Func) []*ir.Instr {
	var out []*ir.Instr
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// checkDisjoint fails if anything reachable from the clone is one of the
// source's globals, functions, parameters, blocks or instructions.
func checkDisjoint(t *testing.T, name string, src, clone *ir.Module) {
	t.Helper()
	own := map[any]bool{}
	for _, g := range src.Globals {
		own[g] = true
	}
	for _, f := range src.Funcs {
		own[f] = true
		for _, p := range f.Params {
			own[p] = true
		}
		for _, b := range f.Blocks {
			own[b] = true
			for _, in := range b.Instrs {
				own[in] = true
			}
		}
	}
	bad := func(what string, p any) {
		if own[p] {
			t.Errorf("%s: clone reaches a source %s", name, what)
		}
	}
	for _, g := range clone.Globals {
		bad("global", g)
	}
	for _, f := range clone.Funcs {
		bad("func", f)
		if f.Mod != clone {
			t.Errorf("%s @%s: clone function's module is not the clone", name, f.Name)
		}
		for _, p := range f.Params {
			bad("param", p)
		}
		for _, b := range f.Blocks {
			bad("block", b)
			if b.Func() != f {
				t.Errorf("%s @%s: block ^%s belongs elsewhere", name, f.Name, b.Name)
			}
			for _, in := range b.Instrs {
				bad("instr", in)
				if in.Block() != b {
					t.Errorf("%s @%s: instruction %s belongs elsewhere", name, f.Name, ir.FormatInstr(in))
				}
				if in.Callee() != nil {
					bad("callee", in.Callee())
				}
				for _, s := range in.Succs() {
					bad("successor", s)
				}
				for _, a := range in.Args {
					switch a.(type) {
					case *ir.Instr, *ir.Param, *ir.Global:
						bad("operand", a)
					}
				}
			}
		}
	}
}
