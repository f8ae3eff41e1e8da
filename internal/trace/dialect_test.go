package trace_test

import (
	"strings"
	"testing"

	"hippocrates/internal/core"
	"hippocrates/internal/corpus"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// TestDetectorEquivalenceAcrossDialects: the detector must produce the
// same reports whether the trace arrives in the native or the PMTest
// dialect (the §5.1 interoperability claim).
func TestDetectorEquivalenceAcrossDialects(t *testing.T) {
	p := corpus.ByName("pclht")
	m := p.MustCompile()
	run, err := core.TraceAndCheck(nil, m, p.Entry, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr := run.Trace
	native := pmcheck.Check(tr)

	var buf strings.Builder
	if err := trace.WritePMTest(tr, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := trace.ParsePMTestString(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	viaPMTest := pmcheck.Check(back)
	if native.UniqueSites() != viaPMTest.UniqueSites() ||
		len(native.Reports) != len(viaPMTest.Reports) {
		t.Errorf("dialects disagree: native %d/%d, pmtest %d/%d",
			native.UniqueSites(), len(native.Reports),
			viaPMTest.UniqueSites(), len(viaPMTest.Reports))
	}
}
