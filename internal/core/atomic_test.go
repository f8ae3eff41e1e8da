package core

import (
	"testing"

	"hippocrates/internal/crashsim"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/progen"
)

// mtAtomics publishes three counters with atomic writes from a worker
// thread and persists none of them; main joins the worker before its
// durability point, so the only bugs are the missing flush and fence
// after each atomic write.
const mtAtomics = `
struct line { int v; byte pad[56]; };

struct aroot {
	line a;
	line b;
	line c;
};

void worker() {
	aroot *r = (aroot*) pm_root(sizeof(aroot));
	atomic_store(&r->a.v, 1);
	atomic_add(&r->b.v, 2);
	atomic_cas(&r->c.v, 0, 3);
}

int main() {
	aroot *r = (aroot*) pm_root(sizeof(aroot));
	int t = spawn(worker);
	join(t);
	pm_checkpoint();
	return r->a.v + r->b.v + r->c.v;
}

int crash_check(int completed) {
	aroot *r = (aroot*) pm_root(sizeof(aroot));
	if (completed >= 1) {
		if (r->a.v != 1) { return 1; }
		if (r->b.v != 2) { return 2; }
		if (r->c.v != 3) { return 3; }
	}
	return 0;
}
`

// TestRunAndRepairMTRepairsAtomicWrites: atomic stores, read-modify-writes
// and compare-and-swaps to PM are repair sites like plain stores (the
// flush goes after the atomic write, on its pointer operand), and the
// repaired module passes the detector union and crash validation under
// every explored interleaving.
func TestRunAndRepairMTRepairsAtomicWrites(t *testing.T) {
	mod, err := lang.Compile("mtatomics.pmc", mtAtomics)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	orig := ir.CloneModule(mod)
	res, err := RunAndRepairMT(mod, "main", Options{CrashCheck: &crashsim.Options{}})
	if err != nil {
		t.Fatalf("RunAndRepairMT: %v", err)
	}
	sites := map[ir.Op]bool{}
	for _, rep := range res.Before.Reports {
		if in := resolveSite(orig, rep.Store.Site().Func, rep.Store.Site().InstrID); in != nil {
			sites[in.Op] = true
		}
	}
	for _, op := range []ir.Op{ir.OpAtomicStore, ir.OpAtomicRMW, ir.OpAtomicCAS} {
		if !sites[op] {
			t.Errorf("no report at an %s site before repair", op)
		}
	}
	if !res.Fixed() {
		t.Fatalf("repair did not converge: after=%d reports, %d crash sweeps", len(res.After.Reports), len(res.Crash))
	}
	if len(res.Crash) == 0 {
		t.Fatal("no crash sweep ran")
	}
}

// TestThreadedAtomicSeedsRepair is the regression sweep over the
// generated concurrent programs: every progen.ThreadedConfig seed in
// 0–199 whose explored detector union reports an atomic write (97 seeds)
// repairs without error, and every atomic write still reported after
// repair already has a flush of its pointer and a fence right after it.
// Those leftover reports come from schedules where another thread's
// durability point runs between the atomic write and its flush, as they
// do for plain stores in the same programs.
func TestThreadedAtomicSeedsRepair(t *testing.T) {
	atomicSeeds := 0
	for s := int64(0); s < 200; s++ {
		mod := progen.Generate(s, progen.ThreadedConfig(s))
		if !hasAtomicWrite(mod) {
			continue
		}
		orig := ir.CloneModule(mod)
		res, err := RunAndRepairMT(mod, "main", Options{})
		if err != nil {
			t.Fatalf("seed %d: %v", s, err)
		}
		reported := false
		for _, rep := range res.Before.Reports {
			// Report sites name instruction ids of the module as it was
			// explored: the original before repair, the repaired one after.
			if in := resolveSite(orig, rep.Store.Site().Func, rep.Store.Site().InstrID); in != nil && in.Op.IsAtomic() {
				reported = true
			}
		}
		if !reported {
			continue
		}
		atomicSeeds++
		for _, rep := range res.After.Reports {
			in := resolveSite(mod, rep.Store.Site().Func, rep.Store.Site().InstrID)
			if in == nil || !in.Op.IsAtomic() {
				continue
			}
			fl, fe := nextInstr(in, 1), nextInstr(in, 2)
			if fl == nil || fl.Op != ir.OpFlush || fl.Args[0] != in.StorePtr() || fe == nil || fe.Op != ir.OpFence {
				t.Errorf("seed %d: %s at %s still reported and not followed by flush+fence", s, ir.FormatInstr(in), rep.Store.Site())
			}
		}
	}
	if atomicSeeds != 97 {
		t.Errorf("%d seeds report an atomic write site, want 97", atomicSeeds)
	}
}

func hasAtomicWrite(m *ir.Module) bool {
	for _, f := range m.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				if in.Op.IsAtomic() && in.Op.IsStoreLike() {
					return true
				}
			}
		}
	}
	return false
}

func resolveSite(m *ir.Module, fn string, id int) *ir.Instr {
	f := m.Func(fn)
	if f == nil {
		return nil
	}
	return f.InstrByID(id)
}

// nextInstr returns the instruction k positions after in within its block.
func nextInstr(in *ir.Instr, k int) *ir.Instr {
	blk := in.Block()
	for i, x := range blk.Instrs {
		if x == in && i+k < len(blk.Instrs) {
			return blk.Instrs[i+k]
		}
	}
	return nil
}

// hoistedAtomic has an atomic store inside a helper reached with both a
// volatile and a persistent pointer: the heuristic hoists the fix to the
// PM call site, so the persistent subprogram clone must flush after the
// atomic write just as it does after a plain store.
const hoistedAtomic = `
pm int cell[8];
int vol[8];

void set(int *p, int v) {
	atomic_store(p, v);
}

int main() {
	set(&vol[0], 1);
	set(&cell[0], 2);
	pm_checkpoint();
	return cell[0];
}
`

func TestHoistedAtomicStoreIsFlushedInClone(t *testing.T) {
	mod, err := lang.Compile("hoisted.pmc", hoistedAtomic)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := RunAndRepair(mod, "main", Options{})
	if err != nil {
		t.Fatalf("RunAndRepair: %v", err)
	}
	hoisted := false
	for _, f := range res.Fix.Fixes {
		hoisted = hoisted || f.Kind == FixInterproc
	}
	if !hoisted {
		t.Fatalf("fix was not hoisted: %v", res.Fix.Fixes)
	}
	if !res.Fixed() {
		t.Fatalf("hoisted repair left %d report(s)", len(res.After.Reports))
	}
}
