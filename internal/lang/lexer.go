package lang

import (
	"strings"
)

// lexer turns source text into tokens.
type lexer struct {
	file string
	src  string
	pos  int
	line int
}

func newLexer(file, src string) *lexer {
	return &lexer{file: file, src: src, line: 1}
}

// twoCharOps are the multi-character operators, longest-match-first.
var threeCharOps = []string{"<<=", ">>="}
var twoCharOps = []string{
	"==", "!=", "<=", ">=", "&&", "||", "<<", ">>", "->", "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "++", "--",
}

// tokenCapHint is the token slice capacity lex starts with for src. The
// corpus sources run 5.1 to 6.4 bytes per token, so a token per 4 bytes
// (plus slack for tiny sources) holds every token of a real program in
// one allocation.
func tokenCapHint(src string) int { return len(src)/4 + 16 }

func (lx *lexer) lex() ([]token, error) {
	out := make([]token, 0, tokenCapHint(lx.src))
	for {
		lx.skipSpace()
		if lx.pos >= len(lx.src) {
			out = append(out, token{kind: tokEOF, line: lx.line})
			return out, nil
		}
		c := lx.src[lx.pos]
		switch {
		case isIdentStart(c):
			start := lx.pos
			for lx.pos < len(lx.src) && isIdentPart(lx.src[lx.pos]) {
				lx.pos++
			}
			out = append(out, token{kind: tokIdent, text: lx.src[start:lx.pos], line: lx.line})
		case c >= '0' && c <= '9':
			tk, err := lx.lexNumber()
			if err != nil {
				return nil, err
			}
			out = append(out, tk)
		case c == '\'':
			tk, err := lx.lexChar()
			if err != nil {
				return nil, err
			}
			out = append(out, tk)
		case c == '"':
			tk, err := lx.lexString()
			if err != nil {
				return nil, err
			}
			out = append(out, tk)
		default:
			op := lx.lexOp()
			if op == "" {
				return nil, errf(lx.file, lx.line, "unexpected character %q", rune(c))
			}
			out = append(out, token{kind: tokPunct, text: op, line: lx.line})
		}
	}
}

func (lx *lexer) skipSpace() {
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch {
		case c == '\n':
			lx.line++
			lx.pos++
		case c == ' ' || c == '\t' || c == '\r':
			lx.pos++
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '/':
			for lx.pos < len(lx.src) && lx.src[lx.pos] != '\n' {
				lx.pos++
			}
		case c == '/' && lx.pos+1 < len(lx.src) && lx.src[lx.pos+1] == '*':
			lx.pos += 2
			for lx.pos+1 < len(lx.src) && !(lx.src[lx.pos] == '*' && lx.src[lx.pos+1] == '/') {
				if lx.src[lx.pos] == '\n' {
					lx.line++
				}
				lx.pos++
			}
			lx.pos += 2
		default:
			return
		}
	}
}

func (lx *lexer) lexNumber() (token, error) {
	start := lx.pos
	base := int64(10)
	if strings.HasPrefix(lx.src[lx.pos:], "0x") || strings.HasPrefix(lx.src[lx.pos:], "0X") {
		base = 16
		lx.pos += 2
	}
	v := int64(0)
	digits := 0
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		var d int64
		switch {
		case c >= '0' && c <= '9':
			d = int64(c - '0')
		case base == 16 && c >= 'a' && c <= 'f':
			d = int64(c-'a') + 10
		case base == 16 && c >= 'A' && c <= 'F':
			d = int64(c-'A') + 10
		default:
			goto done
		}
		if d >= base {
			return token{}, errf(lx.file, lx.line, "bad digit in number %q", lx.src[start:lx.pos+1])
		}
		v = v*base + d
		digits++
		lx.pos++
	}
done:
	if digits == 0 {
		return token{}, errf(lx.file, lx.line, "malformed number")
	}
	return token{kind: tokInt, val: v, line: lx.line}, nil
}

func (lx *lexer) lexChar() (token, error) {
	lx.pos++ // opening quote
	if lx.pos >= len(lx.src) {
		return token{}, errf(lx.file, lx.line, "unterminated character literal")
	}
	var v int64
	c := lx.src[lx.pos]
	if c == '\\' {
		lx.pos++
		if lx.pos >= len(lx.src) {
			return token{}, errf(lx.file, lx.line, "unterminated escape")
		}
		e, err := unescape(lx.src[lx.pos])
		if err != nil {
			return token{}, errf(lx.file, lx.line, "%s", err)
		}
		v = int64(e)
	} else {
		v = int64(c)
	}
	lx.pos++
	if lx.pos >= len(lx.src) || lx.src[lx.pos] != '\'' {
		return token{}, errf(lx.file, lx.line, "unterminated character literal")
	}
	lx.pos++
	return token{kind: tokChar, val: v, line: lx.line}, nil
}

func (lx *lexer) lexString() (token, error) {
	lx.pos++ // opening quote
	var sb strings.Builder
	for lx.pos < len(lx.src) {
		c := lx.src[lx.pos]
		switch c {
		case '"':
			lx.pos++
			return token{kind: tokString, text: sb.String(), line: lx.line}, nil
		case '\\':
			lx.pos++
			if lx.pos >= len(lx.src) {
				return token{}, errf(lx.file, lx.line, "unterminated escape")
			}
			e, err := unescape(lx.src[lx.pos])
			if err != nil {
				return token{}, errf(lx.file, lx.line, "%s", err)
			}
			sb.WriteByte(e)
			lx.pos++
		case '\n':
			return token{}, errf(lx.file, lx.line, "newline in string literal")
		default:
			sb.WriteByte(c)
			lx.pos++
		}
	}
	return token{}, errf(lx.file, lx.line, "unterminated string literal")
}

func unescape(c byte) (byte, error) {
	switch c {
	case 'n':
		return '\n', nil
	case 't':
		return '\t', nil
	case 'r':
		return '\r', nil
	case '0':
		return 0, nil
	case '\\':
		return '\\', nil
	case '\'':
		return '\'', nil
	case '"':
		return '"', nil
	}
	return 0, errf("", 0, "unknown escape \\%c", rune(c))
}

func (lx *lexer) lexOp() string {
	rest := lx.src[lx.pos:]
	for _, op := range threeCharOps {
		if strings.HasPrefix(rest, op) {
			lx.pos += 3
			return op
		}
	}
	for _, op := range twoCharOps {
		if strings.HasPrefix(rest, op) {
			lx.pos += 2
			return op
		}
	}
	switch rest[0] {
	case '+', '-', '*', '/', '%', '&', '|', '^', '~', '!', '<', '>', '=',
		'(', ')', '{', '}', '[', ']', ';', ',', '.', ':':
		lx.pos++
		return rest[:1]
	}
	return ""
}

func isIdentStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool {
	return isIdentStart(c) || (c >= '0' && c <= '9')
}
