package lang_test

import (
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/lang"
)

// TestLexOneTokenAllocation: the lexer sizes its token slice from the
// source length, so every corpus source lexes into the slice it started
// with, never regrowing it.
func TestLexOneTokenAllocation(t *testing.T) {
	srcs := map[string]string{}
	for _, p := range corpus.All() {
		srcs[p.Name] = p.Source()
	}
	for _, p := range corpus.MTPrograms() {
		srcs[p.Name] = p.Source()
	}
	for name, src := range srcs {
		n, capacity, hint, err := lang.LexCaps(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if capacity != hint {
			t.Errorf("%s: %d tokens in %d bytes (%.1f bytes/token) regrew the token slice from %d to %d",
				name, n, len(src), float64(len(src))/float64(n), hint, capacity)
		}
	}
}
