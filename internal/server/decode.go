package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"hippocrates/internal/cli"
)

// readRequest reads and decodes one request body into req. The body is
// read once, into a buffer of its declared Content-Length (a body of
// undeclared length is read in chunks and joined once), under
// http.MaxBytesReader; the source is then unescaped from that buffer
// straight into its string, so a request costs one copy of the body and
// one of the source.
func readRequest(w http.ResponseWriter, r *http.Request, req *cli.Request) error {
	body, err := readBody(w, r)
	if err != nil {
		return err
	}
	return decodeRequest(body, req)
}

// readBody reads the whole body of r, bounded by MaxRequestBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	if r.ContentLength > MaxRequestBytes {
		return nil, &http.MaxBytesError{Limit: MaxRequestBytes}
	}
	body := http.MaxBytesReader(w, r.Body, MaxRequestBytes)
	if r.ContentLength < 0 {
		return readChunks(body)
	}
	buf := make([]byte, r.ContentLength)
	if _, err := io.ReadFull(body, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// bodyChunk is the size of the chunks readChunks reads.
const bodyChunk = 8 << 10

// readChunks reads r to its end in chunks of bodyChunk bytes and joins
// them once into a buffer of exactly the body's length. io.ReadAll grows
// one buffer instead, copying the body about twice more on the way and
// returning up to twice its length.
func readChunks(r io.Reader) ([]byte, error) {
	var chunks [][]byte
	size := 0
	for {
		chunk := make([]byte, bodyChunk)
		n, err := io.ReadFull(r, chunk)
		chunks = append(chunks, chunk[:n])
		size += n
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	buf := make([]byte, 0, size)
	for _, c := range chunks {
		buf = append(buf, c...)
	}
	return buf, nil
}

// decodeRequest decodes body into req as a json.Decoder with
// DisallowUnknownFields decodes it, except that bytes other than
// whitespace after the object are an error.
func decodeRequest(body []byte, req *cli.Request) error {
	wire := wireRequest{Request: req}
	if err := json.Unmarshal(body, &wire); err != nil {
		return err
	}
	if err := checkFields(body); err != nil {
		return err
	}
	req.Source = string(wire.Source)
	return nil
}

// wireRequest is the decode target of a request body: every field of
// cli.Request, with source shadowed by a type that unescapes it in one
// allocation.
type wireRequest struct {
	*cli.Request
	Source wireSource `json:"source"`
}

// wireSource is a JSON string decoded as encoding/json decodes one into
// a string, into a string of exact length: encoding/json would build it
// in a scratch buffer and copy it again.
type wireSource string

// UnmarshalJSON decodes the string literal lit. As for a string field,
// null leaves the value unchanged and any other value is an error.
// json.Unmarshal has already validated lit.
func (s *wireSource) UnmarshalJSON(lit []byte) error {
	switch lit[0] {
	case 'n':
		return nil
	case '"':
		*s = wireSource(unquote(lit))
		return nil
	}
	return errors.New("json: source is not a string")
}

// unquote decodes the JSON string literal lit, which the JSON scanner has
// accepted, exactly as encoding/json does: every escape, surrogate pairs
// joined, a lone surrogate and each byte of invalid UTF-8 becoming
// U+FFFD. It sizes the string in a first pass, so it allocates once.
func unquote(lit []byte) string {
	s := lit[1 : len(lit)-1]
	n, valid := unquotedLen(s)
	var b strings.Builder
	b.Grow(n)
	for len(s) > 0 {
		i := bytes.IndexByte(s, '\\')
		if i < 0 {
			i = len(s)
		}
		writeRun(&b, s[:i], valid)
		if s = s[i:]; len(s) > 0 {
			r, size := unescape(s)
			b.WriteRune(r)
			s = s[size:]
		}
	}
	return b.String()
}

// unquotedLen returns the decoded length of s, the body of an accepted
// JSON string literal, and whether s is valid UTF-8.
func unquotedLen(s []byte) (n int, valid bool) {
	valid = true
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			r, size := unescape(s[i:])
			n += utf8.RuneLen(r)
			i += size
		case c < utf8.RuneSelf:
			n++
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			if r == utf8.RuneError && size == 1 {
				valid = false
				n += utf8.RuneLen(r)
			} else {
				n += size
			}
			i += size
		}
	}
	return n, valid
}

// writeRun writes a run of a literal's body that holds no escape to b,
// with each byte of invalid UTF-8 as U+FFFD.
func writeRun(b *strings.Builder, run []byte, valid bool) {
	if valid {
		b.Write(run)
		return
	}
	for len(run) > 0 {
		r, size := utf8.DecodeRune(run)
		if r == utf8.RuneError && size == 1 {
			b.WriteRune(r)
		} else {
			b.Write(run[:size])
		}
		run = run[size:]
	}
}

// unescape decodes the escape at the start of s and returns its rune and
// length: a surrogate pair is one rune, and a lone surrogate is U+FFFD.
func unescape(s []byte) (rune, int) {
	if r := escaped[s[1]]; r != 0 {
		return r, 2
	}
	r := hex4(s[2:6]) // \uXXXX
	if !utf16.IsSurrogate(r) {
		return r, 6
	}
	r2 := rune(-1)
	if len(s) >= 12 && s[6] == '\\' && s[7] == 'u' {
		r2 = hex4(s[8:12])
	}
	if r = utf16.DecodeRune(r, r2); r != unicode.ReplacementChar {
		return r, 12
	}
	return r, 6
}

// escaped maps the byte after a backslash to the rune it stands for; 'u'
// and bytes the scanner rejects map to 0.
var escaped = [256]rune{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 decodes four hexadecimal digits the scanner has accepted.
func hex4(h []byte) rune {
	var r rune
	for _, c := range h[:4] {
		switch {
		case c <= '9':
			c -= '0'
		case c >= 'a':
			c -= 'a' - 10
		default:
			c -= 'A' - 10
		}
		r = r<<4 | rune(c)
	}
	return r
}

// requestFields holds the JSON names of cli.Request's fields, read from
// its tags, so the unknown-field check cannot drift from the struct.
var requestFields = func() [][]byte {
	var names [][]byte
	t := reflect.TypeFor[cli.Request]()
	for i := range t.NumField() {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if !f.IsExported() || name == "-" {
			continue
		}
		if name == "" {
			name = f.Name
		}
		names = append(names, []byte(name))
	}
	return names
}()

// checkFields rejects a body whose top-level object holds a key that
// names no field of cli.Request, matched as encoding/json matches keys:
// unescaped, then case-folded. body is a JSON value json.Unmarshal has
// accepted into a wireRequest, so it is null or an object.
func checkFields(body []byte) error {
	i := skipSpace(body, 0)
	if body[i] != '{' {
		return nil
	}
	for {
		i = skipSpace(body, i+1) // past the brace or a comma
		if body[i] == '}' {
			return nil
		}
		end := skipString(body, i)
		key := body[i+1 : end-1]
		if bytes.IndexByte(key, '\\') >= 0 || !isASCII(key) {
			key = []byte(unquote(body[i:end]))
		}
		if !knownField(key) {
			return fmt.Errorf("json: unknown field %q", key)
		}
		i = skipSpace(body, end) // the colon
		i = skipSpace(body, skipValue(body, skipSpace(body, i+1)))
		if body[i] == '}' {
			return nil
		}
	}
}

func knownField(key []byte) bool {
	for _, name := range requestFields {
		if bytes.EqualFold(key, name) {
			return true
		}
	}
	return false
}

func isASCII(s []byte) bool {
	for _, c := range s {
		if c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index just past the string literal that starts
// at data[i]: past the first quote not escaped by an odd run of
// backslashes.
func skipString(data []byte, i int) int {
	for i++; ; {
		q := i + bytes.IndexByte(data[i:], '"')
		b := q
		for data[b-1] == '\\' {
			b--
		}
		if (q-b)%2 == 0 {
			return q + 1
		}
		i = q + 1
	}
}

// skipValue returns the index just past the valid JSON value that starts
// at data[i].
func skipValue(data []byte, i int) int {
	depth := 0
	for {
		switch data[i] {
		case '"':
			i = skipString(data, i)
		case '{', '[':
			depth++
			i++
		case '}', ']':
			depth--
			i++
		default:
			i++
			if depth == 0 { // a number, true, false or null
				for i < len(data) && strings.IndexByte(",}] \t\n\r", data[i]) < 0 {
					i++
				}
			}
		}
		if depth == 0 {
			return i
		}
	}
}
