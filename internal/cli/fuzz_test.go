package cli_test

import (
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
)

// FuzzCompileIR feeds its input to cli.Run as .pmir source in check,
// static-check and repair mode, under a small step limit and timeout.
// Nothing may panic out of cli.Run, and an input that parses but that
// ir.Verify rejects must come back as the compile error, before any
// layer runs: the only span recorded under the pipeline's is parse-ir.
// A module that parses must also print to text that parses and prints
// back to the same text, unless it holds a non-null pointer constant:
// Print spells one ptraddr:N, which the parser does not read. The seed
// corpus (testdata/fuzz/FuzzCompileIR) holds the malformedIR modules, a
// printed progen module and a printed corpus module.
func FuzzCompileIR(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		var verr error
		if m, err := ir.ParseModule(src); err == nil {
			verr = ir.Verify(m)
			if text := ir.Print(m); !strings.Contains(text, "ptraddr:") {
				m2, err := ir.ParseModule(text)
				if err != nil {
					t.Fatalf("the printed module does not parse: %v", err)
				}
				if ir.Print(m2) != text {
					t.Fatal("the printed module prints differently once parsed")
				}
			}
		}
		for _, q := range []cli.Request{
			{Mode: cli.ModeCheck},
			{Mode: cli.ModeCheck, Static: true},
			{Mode: cli.ModeRepair},
		} {
			q.Program, q.Source, q.StepLimit, q.TimeoutMS = "fuzz.pmir", src, 20_000, 2_000
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
