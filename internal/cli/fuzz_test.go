package cli_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/lang"
	"hippocrates/internal/obs"
)

// fuzzRequests are the modes each fuzz target runs its input through,
// under a small step limit and timeout.
func fuzzRequests(program, src string) []cli.Request {
	qs := []cli.Request{
		{Mode: cli.ModeCheck},
		{Mode: cli.ModeCheck, Static: true},
		{Mode: cli.ModeRepair},
	}
	for i := range qs {
		qs[i].Program, qs[i].Source, qs[i].StepLimit, qs[i].TimeoutMS = program, src, 20_000, 2_000
	}
	return qs
}

// FuzzCompileIR feeds its input to cli.Run as .pmir source in check,
// static-check and repair mode, under a small step limit and timeout.
// Nothing may panic out of cli.Run, and an input that parses but that
// ir.Verify rejects must come back as the compile error, before any
// layer runs: the only span recorded under the pipeline's is parse-ir.
// A module that parses must also print to text that parses and prints
// back to the same text. The seed corpus (testdata/fuzz/FuzzCompileIR)
// holds the malformedIR modules, a printed progen module, a printed
// corpus module and a module that stores a non-null pointer constant.
func FuzzCompileIR(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		var verr error
		if m, err := ir.ParseModule(src); err == nil {
			verr = ir.Verify(m)
			text := ir.Print(m)
			m2, err := ir.ParseModule(text)
			if err != nil {
				t.Fatalf("the printed module does not parse: %v", err)
			}
			if ir.Print(m2) != text {
				t.Fatal("the printed module prints differently once parsed")
			}
		}
		for _, q := range fuzzRequests("fuzz.pmir", src) {
			rec := obs.New()
			_, err := cli.Run(&q, rec.StartSpan("pipeline"))
			if verr == nil {
				continue
			}
			if want := "ir: malformed module: " + verr.Error(); err == nil || err.Error() != want {
				t.Fatalf("%s (static %v): got %v, want %q", q.Mode, q.Static, err, want)
			}
			for _, sp := range rec.Spans()[1:] {
				if sp.Name != "parse-ir" {
					t.Fatalf("%s (static %v): span %q ran on a module the verifier rejects", q.Mode, q.Static, sp.Name)
				}
			}
		}
	})
}

// FuzzCompilePMC feeds its input to cli.Run as pmc source in check,
// static-check and repair mode, under a small step limit and timeout.
// Nothing may panic out of cli.Run, and a source that lang.Compile
// rejects must come back as that error before any pipeline layer runs:
// the only spans recorded under the pipeline's are the front end's lex,
// parse and lower. The seeds are the corpus programs, the repository's
// testdata/*.pmc programs and two sources that do not compile.
func FuzzCompilePMC(f *testing.F) {
	for _, p := range corpus.All() {
		f.Add(p.Source())
	}
	paths, err := filepath.Glob("../../testdata/*.pmc")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata programs: %v", err)
	}
	for _, path := range paths {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	// One source the parser rejects and one the lowering rejects, so the
	// seed run checks the compile-failure path too.
	f.Add("int main() { return 0 }")
	f.Add("int main() { return missing; }")
	f.Fuzz(func(t *testing.T, src string) {
		if strings.TrimSpace(src) == "" {
			return // a request error (Validate), not a compile error
		}
		_, cerr := lang.Compile("fuzz.pmc", src)
		for _, q := range fuzzRequests("fuzz.pmc", src) {
			rec := obs.New()
			_, err := cli.Run(&q, rec.StartSpan("pipeline"))
			if cerr == nil {
				continue
			}
			if err == nil || err.Error() != cerr.Error() {
				t.Fatalf("%s (static %v): got %v, want %q", q.Mode, q.Static, err, cerr)
			}
			for _, sp := range rec.Spans()[1:] {
				if sp.Name != "lex" && sp.Name != "parse" && sp.Name != "lower" {
					t.Fatalf("%s (static %v): span %q ran on a source that does not compile", q.Mode, q.Static, sp.Name)
				}
			}
		}
	})
}
