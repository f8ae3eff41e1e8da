package pmcheck_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// pmtestSamples are PMTest-dialect traces from the trace package's
// tests: one that parses (every record kind, frames with and without
// source locations) and ones its parser rejects.
var pmtestSamples = []string{
	`PMTest v1 demo
REGISTER 0x100000000040 64 @pool
STORE 0x100000000040 8 @ update:3:a.pmc:12 < modify:1:a.pmc:20 < main:7
FLUSH clwb 0x100000000040 @ update:4:a.pmc:13
NTSTORE 0x100000000080 8 @ main:9
FENCE sfence @ main:10
CHECK @ main:11
`,
	"PMTest v1 x\nSTORE 0x100000000040 1\nNTSTORE 0x100000000078 8\n",
	"PMTest v1 x\nEXPLODE",
	"PMTest v1 x\nSTORE zz 8",
	"PMTest v1 x\nFLUSH clzap 0x10",
	"PMTest v1 x\nCHECK @ f:x",
}

// FuzzParseTrace feeds its input to the trace parser the CLIs use:
// trace.ParsePMTestString when it starts with "PMTest ", as cli.LoadTrace
// dispatches, and trace.ParseString otherwise. An accepted trace must
// replay through Check without panicking, and its textual form must parse
// back and print the same text. The seeds are the repository's
// testdata/*.trace files and the PMTest samples above.
func FuzzParseTrace(f *testing.F) {
	paths, err := filepath.Glob("../../testdata/*.trace")
	if err != nil || len(paths) == 0 {
		f.Fatalf("no testdata traces: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(data))
	}
	for _, s := range pmtestSamples {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		parse := trace.ParseString
		if strings.HasPrefix(src, "PMTest ") {
			parse = trace.ParsePMTestString
		}
		tr, err := parse(src)
		if err != nil {
			return
		}
		pmcheck.Check(tr)
		text := tr.String()
		back, err := trace.ParseString(text)
		if err != nil {
			t.Fatalf("the printed trace does not parse: %v\n%s", err, text)
		}
		if got := back.String(); got != text {
			t.Fatalf("the printed trace prints differently once parsed:\n%s\n----\n%s", text, got)
		}
	})
}
