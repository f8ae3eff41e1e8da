package alias

import (
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/lru"
)

func compileCons(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("cons.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

const consSrc = `
pm int cell[16];
int buf[8];
void put(int *p, int v) {
	*p = v;
	clwb(p);
	sfence();
}
void fill(int *q) {
	put(q, 1);
	put(q, 2);
}
int main() {
	put(&cell[0], 7);
	fill(&cell[1]);
	put(&buf[0], 3);
	pm_checkpoint();
	return cell[0];
}
`

// digestsOf canonicalizes the solved relation per defined function.
func digestsOf(a *Analysis) map[string]string {
	out := map[string]string{}
	for _, f := range a.mod.Funcs {
		if f.IsDecl() {
			continue
		}
		out[f.Name] = a.FuncDigest(f)
	}
	return out
}

func requireSameDigests(t *testing.T, cold, warm *Analysis) {
	t.Helper()
	cd, wd := digestsOf(cold), digestsOf(warm)
	if len(cd) != len(wd) {
		t.Fatalf("digest sets differ in size: cold %d, warm %d", len(cd), len(wd))
	}
	for fn, d := range cd {
		if wd[fn] != d {
			t.Errorf("%s: warm points-to digest differs from cold", fn)
		}
	}
}

// A warm run over an identical module must hit the store for every
// defined function and solve to the identical points-to relation.
func TestConstraintStoreWarmMatchesCold(t *testing.T) {
	store := lru.New[string, []Cons](64)
	cold := Analyze(compileCons(t, consSrc))
	first := AnalyzeWithStore(compileCons(t, consSrc), store)
	if s := first.ConsStatsOf(); s.Hits != 0 || s.Misses != 3 {
		t.Fatalf("first store-backed run: stats = %+v, want 0 hits / 3 misses", s)
	}
	warm := AnalyzeWithStore(compileCons(t, consSrc), store)
	if s := warm.ConsStatsOf(); s.Misses != 0 || s.Hits != 3 {
		t.Fatalf("warm run: stats = %+v, want 3 hits / 0 misses", s)
	}
	requireSameDigests(t, cold, warm)
	requireSameDigests(t, first, warm)

	// Spot-check the queries the fixer actually issues on the warm run.
	mod := warm.mod
	put := mod.Func("put")
	if !warm.MayPointToPM(put.Params[0]) {
		t.Error("warm: put's pointer parameter should may-point-to-PM")
	}
	if !warm.MayPointToNonPM(put.Params[0]) {
		t.Error("warm: put's pointer parameter should also may-point-to-volatile (buf)")
	}
}

// Editing one function misses only that function's constraints; every
// other function replays from the store, and the solved relation equals
// a from-scratch analysis of the edited module.
func TestConstraintStoreEditedModuleReuse(t *testing.T) {
	const edited = `
pm int cell[16];
int buf[8];
void put(int *p, int v) {
	*p = v + 1;
	clwb(p);
	sfence();
}
void fill(int *q) {
	put(q, 1);
	put(q, 2);
}
int main() {
	put(&cell[0], 7);
	fill(&cell[1]);
	put(&buf[0], 3);
	pm_checkpoint();
	return cell[0];
}
`
	store := lru.New[string, []Cons](64)
	AnalyzeWithStore(compileCons(t, consSrc), store)
	warm := AnalyzeWithStore(compileCons(t, edited), store)
	if s := warm.ConsStatsOf(); s.Hits != 2 || s.Misses != 1 {
		t.Fatalf("edited warm run: stats = %+v, want 2 hits / 1 miss", s)
	}
	cold := Analyze(compileCons(t, edited))
	requireSameDigests(t, cold, warm)
}

// ObjectRef / ObjectIDByRef must round-trip for every object.
func TestObjectRefRoundTrip(t *testing.T) {
	a := Analyze(compileCons(t, consSrc))
	for _, o := range a.Objects() {
		ref := a.ObjectRef(o.ID)
		id, ok := a.ObjectIDByRef(ref)
		if !ok || id != o.ID {
			t.Errorf("object %d (%s): ref %q resolves to (%d, %v)", o.ID, o, ref, id, ok)
		}
	}
}
