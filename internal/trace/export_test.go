package trace

import "io"

// WritePMTest is writePMTest for the external tests, which import the
// detector and the corpus (and through them this package), so they
// cannot live in package trace.
func WritePMTest(t *Trace, w io.Writer) error { return t.writePMTest(w) }
