package ir_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/progen"
)

func compileFp(t *testing.T, src string) *ir.Module {
	t.Helper()
	m, err := lang.Compile("fp.pmc", src)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fpOf(t *testing.T, m *ir.Module, name string) string {
	t.Helper()
	f := m.Func(name)
	if f == nil || f.IsDecl() {
		t.Fatalf("function %q not found or has no body", name)
	}
	return ir.FuncFingerprint(f)
}

const fpBase = `
pm int cell[16];
void put(int *p, int v) {
	*p = v;
	clwb(p);
	sfence();
}
int main() {
	put(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`

// Identical bodies must fingerprint equal even when they live in
// different module instances (the store is shared across jobs that
// compile the same source independently).
func TestFingerprintEqualAcrossModules(t *testing.T) {
	m1 := compileFp(t, fpBase)
	m2 := compileFp(t, fpBase)
	for _, fn := range []string{"put", "main"} {
		if a, b := fpOf(t, m1, fn), fpOf(t, m2, fn); a != b {
			t.Errorf("%s: fingerprints differ across identical modules:\n%s\n%s", fn, a, b)
		}
	}
}

// The fingerprint must not depend on where the function sits in the
// module: reordering unrelated definitions leaves it unchanged.
func TestFingerprintIndependentOfModuleOrder(t *testing.T) {
	// `put` sits on the same source lines in both modules, but an extra
	// definition ahead of it shifts its position in the function list.
	const fpBaseLine2 = `pm int cell[16];
void put(int *p, int v) {
	*p = v;
	clwb(p);
	sfence();
}
int main() {
	put(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`
	reordered := "int unrelated(int x) { return x + 1; }\n" + fpBaseLine2
	base := "\n" + fpBaseLine2
	m1 := compileFp(t, base)
	m2 := compileFp(t, reordered)
	if a, b := fpOf(t, m1, "put"), fpOf(t, m2, "put"); a != b {
		t.Errorf("put: fingerprint depends on module-level ordering:\n%s\n%s", a, b)
	}
}

// Any body change — opcode, operand, block structure, location — must
// change the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := fpOf(t, compileFp(t, fpBase), "put")
	variants := map[string]string{
		"opcode (clwb -> clflushopt)": `
pm int cell[16];
void put(int *p, int v) {
	*p = v;
	clflushopt(p);
	sfence();
}
int main() { put(&cell[0], 7); pm_checkpoint(); return cell[0]; }
`,
		"operand (store v+1)": `
pm int cell[16];
void put(int *p, int v) {
	*p = v + 1;
	clwb(p);
	sfence();
}
int main() { put(&cell[0], 7); pm_checkpoint(); return cell[0]; }
`,
		"dropped instruction (no fence)": `
pm int cell[16];
void put(int *p, int v) {
	*p = v;
	clwb(p);
}
int main() { put(&cell[0], 7); pm_checkpoint(); return cell[0]; }
`,
		"block structure (branch)": `
pm int cell[16];
void put(int *p, int v) {
	if (v > 0) { *p = v; }
	clwb(p);
	sfence();
}
int main() { put(&cell[0], 7); pm_checkpoint(); return cell[0]; }
`,
	}
	for name, src := range variants {
		if got := fpOf(t, compileFp(t, src), "put"); got == base {
			t.Errorf("%s: fingerprint did not change", name)
		}
	}
}

// A location-only change (same opcodes, shifted source lines) must still
// change the fingerprint: analysis reports carry locations, so cached
// results from the old body would replay stale line numbers.
func TestFingerprintCoversLocations(t *testing.T) {
	shifted := "\n" + fpBase // every Loc.Line moves down by one
	a := fpOf(t, compileFp(t, fpBase), "put")
	b := fpOf(t, compileFp(t, shifted), "put")
	if a == b {
		t.Error("fingerprint ignores source locations")
	}
}

// The declarations of referenced globals are part of the contract: the
// same body over a volatile cell must not collide with the PM version
// (PM-ness decides whether stores are tracked at all).
func TestFingerprintCoversReferencedGlobalDecls(t *testing.T) {
	volatileCell := `
int cell[16];
void put(int *p, int v) {
	*p = v;
	clwb(p);
	sfence();
}
int main() {
	put(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`
	a := fpOf(t, compileFp(t, fpBase), "main")
	b := fpOf(t, compileFp(t, volatileCell), "main")
	if a == b {
		t.Error("fingerprint ignores the PM-ness of referenced globals")
	}
}

// Callee signatures are covered (pointer-ness of parameters shapes alias
// constraints), but callee bodies are not: a body-only callee change must
// leave the caller's fingerprint alone — that is the callee summary
// hash's job in the incremental cache key.
func TestFingerprintExcludesCalleeBodies(t *testing.T) {
	calleeBodyChanged := `
pm int cell[16];
void put(int *p, int v) {
	*p = v;
	sfence();
	sfence();
}
int main() {
	put(&cell[0], 7);
	pm_checkpoint();
	return cell[0];
}
`
	a := fpOf(t, compileFp(t, fpBase), "main")
	b := fpOf(t, compileFp(t, calleeBodyChanged), "main")
	if a != b {
		t.Error("caller fingerprint changed on a callee body-only edit")
	}
}

// TestFingerprintMatchesOracle pins the streamed fingerprint to the
// build-then-hash one it replaced, over every function of the module set
// and of the every-opcode module. Fingerprints are summary-store keys, so
// their values must not move.
func TestFingerprintMatchesOracle(t *testing.T) {
	n := 0
	mods := append([]namedModule{{"every-opcode", everyOpcodeModule(t)}}, moduleSet()...)
	for _, nm := range mods {
		// Fingerprinting memoizes on the function; a clone keeps the
		// shared set unwritten.
		m := ir.CloneModule(nm.mod)
		for _, f := range m.Funcs {
			if f.IsDecl() {
				continue
			}
			n++
			if got, want := ir.FuncFingerprint(f), refFingerprint(f); got != want {
				t.Errorf("%s/@%s: fingerprint %s, oracle %s", nm.name, f.Name, got, want)
			}
		}
	}
	t.Logf("%d functions", n)
}

// TestFingerprintAllocsFlat: a fingerprint's allocations are fixed (the
// digest, its scratch, the hex string), not proportional to the body. A
// layered leaf references no global or callee, so growing it eightfold
// grows only its body.
func TestFingerprintAllocsFlat(t *testing.T) {
	allocs := func(leafOps int) float64 {
		f := progen.Layered(progen.LayeredConfig{LeafOps: leafOps}).Func("leaf0")
		return testing.AllocsPerRun(20, func() {
			f.Renumber() // drops the memo, so every run hashes
			ir.FuncFingerprint(f)
		})
	}
	small, big := allocs(24), allocs(192)
	t.Logf("allocations: %v (24 ops), %v (192 ops)", small, big)
	if big > small || big > 3 {
		t.Errorf("fingerprint allocations: %v for a 24-op leaf, %v for a 192-op leaf; want at most 3, flat", small, big)
	}
}

// refFingerprint is the fingerprint as first written, kept as the
// oracle: the whole canonical encoding is built in one byte slice, then
// hashed.
func refFingerprint(f *ir.Func) string {
	h := &refFpHasher{}
	h.str(f.Name)
	for _, p := range f.Params {
		h.str(p.Name)
		h.typ(p.Ty)
	}
	h.str("->")
	h.typ(f.Ret)
	var globals []*ir.Global
	var callees []*ir.Func
	seenG := map[*ir.Global]bool{}
	seenF := map[*ir.Func]bool{}
	for _, b := range f.Blocks {
		h.str("^" + b.Name)
		for _, in := range b.Instrs {
			h.u64(uint64(in.ID))
			h.u64(uint64(in.Op))
			h.str(in.Name)
			h.typ(in.Ty)
			for _, a := range in.Args {
				h.operand(a)
				if g, ok := a.(*ir.Global); ok && !seenG[g] {
					seenG[g] = true
					globals = append(globals, g)
				}
			}
			if in.AllocTy() != nil {
				h.typ(in.AllocTy())
			}
			if in.StoreTy() != nil {
				h.typ(in.StoreTy())
			}
			h.i64(in.Scale())
			h.i64(in.Disp())
			h.u64(uint64(in.FlushK))
			h.u64(uint64(in.FenceK))
			h.u64(uint64(in.Order))
			h.u64(uint64(in.RMWK))
			if in.Callee() != nil {
				h.str("@" + in.Callee().Name)
				if !seenF[in.Callee()] {
					seenF[in.Callee()] = true
					callees = append(callees, in.Callee())
				}
			}
			for _, s := range in.Succs() {
				h.str("^" + s.Name)
			}
			h.str(in.Loc().File)
			h.u64(uint64(in.Loc().Line))
		}
	}
	h.str("globals")
	for _, g := range globals {
		h.str(g.Name)
		h.typ(g.Elem)
		if g.PM {
			h.str("pm")
		}
		h.buf = append(h.buf, g.Init...)
		h.u64(uint64(len(g.Init)))
	}
	h.str("callees")
	for _, c := range callees {
		h.str(c.Sig())
		if c.IsDecl() {
			h.str("decl")
		}
	}
	sum := sha256.Sum256(h.buf)
	return hex.EncodeToString(sum[:])
}

type refFpHasher struct{ buf []byte }

func (h *refFpHasher) str(s string) {
	h.buf = binary.AppendUvarint(h.buf, uint64(len(s)))
	h.buf = append(h.buf, s...)
}

func (h *refFpHasher) u64(v uint64) { h.buf = binary.AppendUvarint(h.buf, v) }
func (h *refFpHasher) i64(v int64)  { h.buf = binary.AppendVarint(h.buf, v) }

func (h *refFpHasher) typ(t ir.Type) {
	if t == nil {
		h.str("<nil>")
		return
	}
	h.str(t.String())
	h.i64(t.Size())
}

func (h *refFpHasher) operand(v ir.Value) {
	switch x := v.(type) {
	case *ir.Const:
		h.buf = append(h.buf, 'c')
		h.typ(x.Ty)
		h.i64(x.Val)
	case *ir.Global:
		h.buf = append(h.buf, 'g')
		h.str(x.Name)
	case *ir.Param:
		h.buf = append(h.buf, 'p')
		h.u64(uint64(x.Index))
	case *ir.Instr:
		h.buf = append(h.buf, 'r')
		h.u64(uint64(x.ID))
	default:
		h.buf = append(h.buf, '?')
		h.str(v.OperandString())
	}
}
