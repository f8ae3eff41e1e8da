package interp_test

import (
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/optimize"
)

// editRun runs mod's entry decoded and on the tree-walker, requires the
// same report from both, and returns the decoded run.
func editRun(t *testing.T, where string, mod *ir.Module, entry string) oracleRun {
	t.Helper()
	want := oracleRunOf(t, mod, entry, interp.NewTreeWalk, interp.Options{}, true)
	got := oracleRunOf(t, mod, entry, interp.New, interp.Options{}, true)
	sameOracleRun(t, where, got, want)
	return got
}

// decodedOf fails unless a run left fn decoded, and returns the form.
func decodedOf(t *testing.T, fn *ir.Func) any {
	t.Helper()
	d := fn.Decoded()
	if d == nil {
		t.Fatalf("@%s ran but holds no decoded form", fn.Name)
	}
	return d
}

func findOp(fn *ir.Func, op ir.Op) *ir.Instr {
	for _, b := range fn.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				return in
			}
		}
	}
	return nil
}

// TestDecodedNeverOutlivesAnEdit: after each way the pipeline edits a
// module it has already run — a block helper insert, a fix-pass repair,
// an optimize trial edit and its undo, the in-place callee rewrite of
// the persistent-subprogram transformation — the next run decodes the
// edited body and reports what the tree-walker reports on it.
func TestDecodedNeverOutlivesAnEdit(t *testing.T) {
	t.Run("block helper insert", func(t *testing.T) {
		mod := lang.MustCompile("insert.pmc", `pm int g; int main() { g = 1; sfence(); return g; }`)
		before := editRun(t, "before", mod, "main")
		main := mod.Func("main")
		decodedOf(t, main)
		st := findOp(main, ir.OpStore)
		st.Block().InsertAfter(st, &ir.Instr{Op: ir.OpFlush, FlushK: ir.CLWB, Args: []ir.Value{st.Args[1]}, Ty: ir.Void})
		if main.Decoded() != nil {
			t.Fatal("an insert left the decoded form in place")
		}
		after := editRun(t, "after insert", mod, "main")
		if after.tr.String() == before.tr.String() {
			t.Fatal("the inserted flush did not run")
		}
	})

	t.Run("fix-pass repair", func(t *testing.T) {
		repaired, hoisted := 0, 0
		for _, p := range corpus.All() {
			if len(p.Bugs) == 0 {
				continue
			}
			mod := p.MustCompile()
			before := editRun(t, p.Name, mod, p.Entry)
			res, err := core.RunAndRepair(mod, p.Entry, core.Options{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			after := editRun(t, p.Name+" repaired", mod, p.Entry)
			if res.Fix != nil && len(res.Fix.Fixes) > 0 {
				repaired++
				if after.tr.String() == before.tr.String() {
					t.Fatalf("%s: the repaired module traces as before", p.Name)
				}
				for _, f := range res.Fix.Fixes {
					if f.Kind.Interprocedural() {
						hoisted++
					}
				}
			}
		}
		if repaired == 0 || hoisted == 0 {
			t.Fatalf("%d repairs, %d interprocedural fixes: the corpus no longer covers this path", repaired, hoisted)
		}
	})

	t.Run("optimize trial edit", func(t *testing.T) {
		mod := lang.MustCompile("trial.pmc", `pm int g; int main() { g = 1; clwb(&g); clwb(&g); sfence(); pm_checkpoint(); return 0; }`)
		before := editRun(t, "before", mod, "main")
		main := mod.Func("main")
		decodedOf(t, main)
		fl := findOp(main, ir.OpFlush)
		blk := fl.Block()
		idx := blk.RemoveInstr(fl)
		trial := editRun(t, "trial", mod, "main")
		if trial.tr.String() == before.tr.String() {
			t.Fatal("the removed flush still ran")
		}
		blk.InsertAt(idx, fl)
		undone := editRun(t, "undone", mod, "main")
		if undone.tr.String() != before.tr.String() {
			t.Fatal("the undone trial does not trace as before")
		}
		res, err := optimize.Optimize(mod, optimize.Options{Entry: "main"})
		if err != nil {
			t.Fatal(err)
		}
		after := editRun(t, "optimized", mod, "main")
		if res.Deleted+res.Merged == 0 || after.tr.String() == before.tr.String() {
			t.Fatalf("optimize removed nothing (%d deleted, %d merged)", res.Deleted, res.Merged)
		}
	})

	t.Run("callee rewrite", func(t *testing.T) {
		mod := lang.MustCompile("callee.pmc", `
int one() { return 1; }
int two() { return 2; }
int main() { return one(); }
`)
		before := editRun(t, "before", mod, "main")
		main := mod.Func("main")
		decodedOf(t, main)
		findOp(main, ir.OpCall).SetCallee(mod.Func("two"))
		after := editRun(t, "after rewrite", mod, "main")
		if before.ret != 1 || after.ret != 2 {
			t.Fatalf("returns %d then %d, want 1 then 2", before.ret, after.ret)
		}
	})
}

// TestCleanModuleSharesDecodedForm: machines running one unchanged
// module decode each function once, on its first call, and never the
// functions no run reaches.
func TestCleanModuleSharesDecodedForm(t *testing.T) {
	mod := lang.MustCompile("shared.pmc", `
int unused() { return 3; }
int id(int x) { return x; }
int main() { return id(4); }
`)
	editRun(t, "first", mod, "main")
	main, id := decodedOf(t, mod.Func("main")), decodedOf(t, mod.Func("id"))
	if mod.Func("unused").Decoded() != nil {
		t.Fatal("a function no run reached was decoded")
	}
	editRun(t, "second", mod, "main")
	if mod.Func("main").Decoded() != main || mod.Func("id").Decoded() != id {
		t.Fatal("a second run of the unchanged module decoded again")
	}
	if ir.CloneModule(mod).Func("main").Decoded() != nil {
		t.Fatal("CloneModule copied the decoded form")
	}
}
