package lang

// LexCaps lexes src and returns the token count, the token slice's
// final capacity and the capacity lex started with, for the external
// tests, which read the corpus (it imports this package).
func LexCaps(src string) (n, capacity, hint int, err error) {
	toks, err := newLexer("src.pmc", src).lex()
	return len(toks), cap(toks), tokenCapHint(src), err
}
