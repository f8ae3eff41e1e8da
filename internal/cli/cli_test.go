package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

const sampleSrc = `
pm int cell;
int main() {
	cell = 7;
	clwb(&cell);
	sfence();
	return cell;
}
`

// TestLoadModulePMC: a program named *.pmc is compiled as pmc source.
func TestLoadModulePMC(t *testing.T) {
	m, err := CompileRequest(&Request{Program: "prog.pmc", Source: sampleSrc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Func("main") == nil {
		t.Error("compiled module lost @main")
	}
}

// TestModuleRoundTripThroughDisk: a module written as textual IR and read
// back as a *.pmir program is the module that was written.
func TestModuleRoundTripThroughDisk(t *testing.T) {
	m, err := CompileRequest(&Request{Program: "prog.pmc", Source: sampleSrc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	irPath := filepath.Join(t.TempDir(), "prog.pmir")
	if err := WriteModule(m, irPath); err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(irPath)
	if err != nil {
		t.Fatal(err)
	}
	back, err := CompileRequest(&Request{Program: filepath.Base(irPath), Source: string(text)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Print(back) != ir.Print(m) {
		t.Error("module changed across the disk round trip")
	}
}

func TestTraceRoundTripThroughDisk(t *testing.T) {
	dir := t.TempDir()
	tr := &trace.Trace{Program: "x"}
	tr.Append(&trace.Event{Kind: trace.KindFence, FenceK: ir.SFENCE,
		Stack: []trace.Frame{{Func: "main", InstrID: 3}}})
	path := filepath.Join(dir, "t.pmtrace")
	if err := WriteTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != tr.String() {
		t.Error("trace changed across the disk round trip")
	}
}

// TestLoadModuleErrors: an empty program, broken pmc source and broken
// textual IR are errors, not modules.
func TestLoadModuleErrors(t *testing.T) {
	m, err := CompileRequest(&Request{Program: "prog.pmc", Source: sampleSrc}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*Request{
		{Program: "empty.pmc", Source: " \n"},
		{Program: "broken.pmc", Source: "int main( {"},
		{Program: "broken.pmir", Source: sampleSrc},
		// Only a .pmir name selects the IR parser: IR text under any
		// other name is compiled as pmc source, and fails.
		{Program: "prog.txt", Source: ir.Print(m)},
	} {
		if _, err := CompileRequest(q, nil); err == nil {
			t.Errorf("%s: want a compile error", q.Program)
		}
	}
}

func TestGzipTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	tr := &trace.Trace{Program: "z"}
	tr.Append(&trace.Event{Kind: trace.KindStore, Addr: 0x100000000000, Size: 8,
		Stack: []trace.Frame{{Func: "f", InstrID: 1}}})
	tr.Append(&trace.Event{Kind: trace.KindCheckpoint,
		Stack: []trace.Frame{{Func: "f", InstrID: 2}}})
	path := filepath.Join(dir, "t.pmtrace.gz")
	if err := WriteTrace(tr, path); err != nil {
		t.Fatal(err)
	}
	// The file is actually compressed (gzip magic bytes).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Error("trace file is not gzip-compressed")
	}
	back, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.String() != tr.String() {
		t.Error("gzip round trip changed the trace")
	}
}

func TestLoadTracePMTestDialect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.pmtest")
	src := "PMTest v1 demo\nSTORE 0x100000000000 8 @ f:1\nCHECK @ f:2\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 || tr.Events[0].Kind != trace.KindStore {
		t.Errorf("pmtest dialect misparsed: %+v", tr.Events)
	}
}

func TestDiffLines(t *testing.T) {
	before := "a\nb\nc\nd\ne\nf\ng"
	after := "a\nb\nc\nX\nd\ne\ng"
	out := DiffLines(before, after)
	if !strings.Contains(out, "+ X") {
		t.Errorf("diff lacks insertion:\n%s", out)
	}
	if !strings.Contains(out, "- f") {
		t.Errorf("diff lacks deletion:\n%s", out)
	}
	if strings.Contains(out, "- a") || strings.Contains(out, "+ a") {
		t.Errorf("unchanged line marked changed:\n%s", out)
	}
	if DiffLines("same\ntext", "same\ntext") != "(no differences)\n" {
		t.Error("identical inputs must report no differences")
	}
	// Pure insertion at the end.
	out = DiffLines("x", "x\ny\nz")
	if !strings.Contains(out, "+ y") || !strings.Contains(out, "+ z") {
		t.Errorf("append diff wrong:\n%s", out)
	}
	// Everything deleted.
	out = DiffLines("p\nq", "")
	if !strings.Contains(out, "- p") || !strings.Contains(out, "- q") {
		t.Errorf("delete diff wrong:\n%s", out)
	}
}

func TestDiffLinesRandomized(t *testing.T) {
	// Property: applying the edit script tags reconstructs both sides.
	mk := func(seed int64) (string, string) {
		r := seed
		next := func(n int64) int64 {
			r = r*6364136223846793005 + 1442695040888963407
			v := r % n
			if v < 0 {
				v = -v
			}
			return v
		}
		var a, b []string
		for i := int64(0); i < 20+next(30); i++ {
			a = append(a, string(rune('a'+next(6))))
		}
		b = append(b, a...)
		for i := 0; i < 6; i++ {
			pos := next(int64(len(b)))
			switch next(2) {
			case 0:
				b = append(b[:pos], append([]string{string(rune('A' + next(6)))}, b[pos:]...)...)
			default:
				b = append(b[:pos], b[pos+1:]...)
			}
			if len(b) == 0 {
				b = []string{"x"}
			}
		}
		return strings.Join(a, "\n"), strings.Join(b, "\n")
	}
	for seed := int64(0); seed < 50; seed++ {
		before, after := mk(seed)
		ops := myers(strings.Split(before, "\n"), strings.Split(after, "\n"))
		var ra, rb []string
		aLines, bLines := strings.Split(before, "\n"), strings.Split(after, "\n")
		for _, op := range ops {
			switch op.kind {
			case opEq:
				ra = append(ra, aLines[op.aIdx])
				rb = append(rb, bLines[op.bIdx])
				if aLines[op.aIdx] != bLines[op.bIdx] {
					t.Fatalf("seed %d: eq op on unequal lines", seed)
				}
			case opDel:
				ra = append(ra, aLines[op.aIdx])
			case opIns:
				rb = append(rb, bLines[op.bIdx])
			}
		}
		if strings.Join(ra, "\n") != before || strings.Join(rb, "\n") != after {
			t.Fatalf("seed %d: edit script does not reconstruct inputs", seed)
		}
	}
}
