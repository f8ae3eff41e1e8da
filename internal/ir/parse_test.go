package ir_test

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
)

type namedSource struct{ name, text string }

// parseSources is the parser's equivalence sweep: the printed module set
// of the clone and printer tests (corpus, progen seeds 0–249, threaded
// seeds 0–199, the layered module), the layered module after 20 edits,
// and the .pmir files under the repository's testdata.
var parseSources = sync.OnceValue(func() []namedSource {
	var out []namedSource
	for _, nm := range moduleSet() {
		out = append(out, namedSource{nm.name, ir.Print(nm.mod)})
	}
	cfg := progen.DefaultLayeredConfig()
	m := progen.Layered(cfg)
	for i := range 20 {
		step := progen.EditStep{Kind: progen.EditKind(i % 3), Target: fmt.Sprintf("leaf%d", i*7%cfg.Leaves)}
		if err := progen.ApplyEdit(m, step); err != nil {
			panic(err)
		}
	}
	out = append(out, namedSource{"layered/edited", ir.Print(m)})
	files, _ := filepath.Glob("../../testdata/*.pmir")
	for _, f := range files {
		text, err := os.ReadFile(f)
		if err != nil {
			panic(err)
		}
		out = append(out, namedSource{f, string(text)})
	}
	return out
})

// malformedSources are inputs the parser must reject, one per error path
// TestParseErrors names.
var malformedSources = []string{
	"func @f() -> void {\nentry:\n  ret void\n}",
	"module m\nfunc @f() -> void {\nentry:\n  flush clwb, ptr %nope\n  ret void\n}",
	"module m\nfunc @f() -> void {\nentry:\n  call @missing()\n  ret void\n}",
	"module m\nfunc @f() -> void {\nentry:\n  jmp ^missing\n}",
	"module m\nfunc @f() -> void {\nentry:\n  frobnicate i64 1, 2\n  ret void\n}",
	"module m\nfunc @f() -> void {\nentry:\n  %a = alloca i64\n  %a = alloca i64\n  ret void\n}",
	"module m\nstruct %S broken",
	"module m\nfunc @f() -> q17 {\nentry:\n  ret void\n}",
	"module m\nfunc @f() -> void {\nentry:\n  ret void\n",
}

// checkParse parses src with ParseModule and with the line-splitting
// oracle it replaced. Both must accept or both reject; rejections must
// name the same line (and, with sameErr, give the same message), and
// accepted modules must agree in every field a parse sets.
func checkParse(t testing.TB, name, src string, sameErr bool) {
	t.Helper()
	got, gerr := ir.ParseModule(src)
	want, werr := ir.OracleParseModule(src)
	switch {
	case werr != nil && gerr == nil:
		t.Fatalf("%s: ParseModule accepted an input the oracle rejects (%v)", name, werr)
	case werr == nil && gerr != nil:
		t.Fatalf("%s: ParseModule rejected an input the oracle accepts: %v", name, gerr)
	case werr != nil:
		if sameErr && gerr.Error() != werr.Error() {
			t.Fatalf("%s: error %q, oracle %q", name, gerr, werr)
		}
		if g, w := lineOf(gerr), lineOf(werr); g != w {
			t.Fatalf("%s: error %q, oracle %q: different lines", name, gerr, werr)
		}
	default:
		if err := ir.DiffModules(got, want); err != nil {
			t.Fatalf("%s: ParseModule and the oracle disagree: %v", name, err)
		}
	}
}

// lineOf returns the "ir: line N:" prefix of a parse error.
func lineOf(err error) string {
	s := err.Error()
	if i := strings.Index(s, ": "); i >= 0 {
		if j := strings.Index(s[i+2:], ": "); j >= 0 {
			return s[:i+2+j+1]
		}
	}
	return s
}

// TestParseMatchesOracle holds ParseModule to the oracle over the sweep,
// the malformed inputs, and mutants of the every-opcode module and of a
// generated module, where the error messages must match too.
func TestParseMatchesOracle(t *testing.T) {
	for _, s := range parseSources() {
		checkParse(t, s.name, s.text, true)
	}
	for i, src := range malformedSources {
		checkParse(t, fmt.Sprintf("malformed/%d", i), src, true)
	}
	rng := rand.New(rand.NewSource(7))
	for _, base := range []string{ir.Print(everyOpcodeModule(t)), ir.Print(progen.Generate(3, progen.ThreadedConfig(3)))} {
		for i := range 2000 {
			src := base
			for range 1 + rng.Intn(3) {
				src = mutate(rng, src)
			}
			checkParse(t, fmt.Sprintf("mutant %d", i), src, true)
		}
	}
}

// mutate overwrites a byte with one the grammar gives meaning to, deletes
// or duplicates a span, swaps two lines, or inserts white space, Unicode
// included.
func mutate(rng *rand.Rand, s string) string {
	const punct = " \t:,;%@^!=()[]{}x0-\xa0\xc2"
	spaces := []string{" ", "\t", "\v", "\r", "\u0085", "\u00a0", "\u2003", "\u3000"}
	b := []byte(s)
	if len(b) == 0 {
		return s
	}
	switch rng.Intn(5) {
	case 0:
		b[rng.Intn(len(b))] = punct[rng.Intn(len(punct))]
	case 1:
		i := rng.Intn(len(b))
		j := i + rng.Intn(min(40, len(b)-i))
		b = append(b[:i], b[j:]...)
	case 2:
		i := rng.Intn(len(b))
		j := i + rng.Intn(min(40, len(b)-i))
		b = append(b[:j], append([]byte(string(b[i:j])), b[j:]...)...)
	case 3:
		lines := strings.Split(s, "\n")
		i, j := rng.Intn(len(lines)), rng.Intn(len(lines))
		lines[i], lines[j] = lines[j], lines[i]
		return strings.Join(lines, "\n")
	case 4:
		i := rng.Intn(len(b))
		return s[:i] + spaces[rng.Intn(len(spaces))] + s[i:]
	}
	return string(b)
}

// FuzzParseModule holds ParseModule to the oracle on arbitrary text: the
// same inputs accepted, rejections on the same line, and accepted
// modules equal in every field. It is seeded from TestParseMatchesOracle's
// sweep and malformed inputs.
func FuzzParseModule(f *testing.F) {
	for _, s := range parseSources() {
		f.Add(s.text)
	}
	for _, src := range malformedSources {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		checkParse(t, "input", src, false)
	})
}

// TestParseModuleBytes bounds the heap cost of one parse of the layered
// module, the text every daemon static repair parses: 1.60 MB measured
// (104-byte instructions carved from per-module slabs), against 2.72 MB
// for the line-splitting parser. The bound is 1.79 MB.
func TestParseModuleBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	text := ir.Print(progen.Layered(progen.DefaultLayeredConfig()))
	parse := func() {
		if _, err := ir.ParseModule(text); err != nil {
			t.Fatal(err)
		}
	}
	parse()
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		parse()
	}
	runtime.ReadMemStats(&after)
	perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes per parse of a %d-byte module", perRun, len(text))
	if perRun > 1_790_000 {
		t.Errorf("parsing the layered module allocates %.0f bytes, want <= 1,790,000", perRun)
	}
}
