package cli_test

import (
	"errors"
	"os"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/core"
	"hippocrates/internal/ir"
)

// malformedHead opens every malformedIR module: a PM global @g and the
// signature and entry label of @main, whose body each case completes.
const malformedHead = "module malformed\n\npm global @g: i64\n\nfunc @main() -> i64 {\nentry:\n"

// malformedIR holds .pmir modules that parse but that ir.Verify rejects:
// bodies that fall through, branch or return mid-block, or have an empty
// block, and a use its definition does not dominate.
var malformedIR = map[string]string{
	"fall-through":       malformedHead + "  store i64 1, ptr @g\n}\n",
	"jmp mid-block":      malformedHead + "  jmp ^x\n  store i64 2, ptr @g\nx:\n  %v = load i64, ptr @g\n  ret i64 %v\n}\n",
	"br mid-block":       malformedHead + "  br i1 0, ^x, ^y\n  store i64 3, ptr @g\n  jmp ^x\nx:\n  %v = load i64, ptr @g\n  ret i64 %v\ny:\n  ret i64 9\n}\n",
	"jmp to empty block": malformedHead + "  store i64 4, ptr @g\n  jmp ^empty\nempty:\n}\n",
	"empty entry":        malformedHead + "}\n",
	"ret mid-block":      malformedHead + "  ret i64 5\n  store i64 5, ptr @g\n}\n",
	// The second call of @f reads %v on the path that skips its
	// definition.
	"undominated use": "module malformed\n\n" +
		"func @f(%c: i1) -> i64 {\nentry:\n  br i1 %c, ^a, ^b\na:\n  %v = add i64 40, 2\n  jmp ^b\nb:\n  ret i64 %v\n}\n\n" +
		"func @main() -> i64 {\nentry:\n  %x = call @f(i1 1)\n  %y = call @f(i1 0)\n  ret i64 %y\n}\n",
}

// TestCompileRejectsMalformedIR: CompileRequest rejects every module
// ir.Verify rejects, testdata/malformed.pmir among them, with the
// verifier's message.
func TestCompileRejectsMalformedIR(t *testing.T) {
	cases := map[string]string{}
	for name, src := range malformedIR {
		cases[name] = src
	}
	file, err := os.ReadFile("../../testdata/malformed.pmir")
	if err != nil {
		t.Fatal(err)
	}
	cases["testdata/malformed.pmir"] = string(file)
	for name, src := range cases {
		m, err := ir.ParseModule(src)
		if err != nil {
			t.Fatalf("%s: does not parse: %v", name, err)
		}
		verr := ir.Verify(m)
		if verr == nil {
			t.Fatalf("%s: the verifier accepts it", name)
		}
		_, err = cli.CompileRequest(&cli.Request{Program: "malformed.pmir", Source: src}, nil)
		if want := "ir: malformed module: " + verr.Error(); err == nil || err.Error() != want {
			t.Errorf("%s: CompileRequest returned %v, want %q", name, err, want)
		}
	}
}

// TestRunModuleRecoversPanic: a module that bypasses CompileRequest and
// panics a layer (the static analysis, on a block that falls through
// after a fence) fails its request with a *core.PanicError instead of
// taking the process down.
func TestRunModuleRecoversPanic(t *testing.T) {
	src, err := os.ReadFile("../../testdata/malformed.pmir")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ir.ParseModule(string(src))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := cli.RunModule(&cli.Request{Program: "malformed.pmir", Source: string(src), Mode: cli.ModeCheck, Static: true}, m, nil)
	var pe *core.PanicError
	if !errors.As(err, &pe) || resp != nil {
		t.Fatalf("RunModule returned %v, %v; want a *core.PanicError", resp, err)
	}
}
