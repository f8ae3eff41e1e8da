package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"hippocrates/internal/cli"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
	"hippocrates/internal/server/loadgen"
)

// decodeWithDecoder is the decode the daemon made before readRequest: a
// json.Decoder with DisallowUnknownFields over the body. It reads one
// value and ignores whatever follows it, which it returns as rest. It is
// the oracle decodeRequest is held to.
func decodeWithDecoder(body io.Reader) (req cli.Request, rest []byte, err error) {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, nil, err
	}
	rest, _ = io.ReadAll(dec.Buffered())
	tail, _ := io.ReadAll(body)
	return req, append(rest, tail...), nil
}

// FuzzDecodeRequest holds decodeRequest to the json.Decoder decode it
// replaced: on any body the two accept or reject alike, except that a
// body the Decoder accepts with bytes other than whitespace after its
// value must be rejected; an accepted body decodes to the same Request;
// and Validate does not panic on it.
func FuzzDecodeRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		var got cli.Request
		err := decodeRequest(body, &got)
		want, rest, wantErr := decodeWithDecoder(bytes.NewReader(body))
		switch {
		case wantErr == nil && len(bytes.TrimLeft(rest, " \t\r\n")) > 0:
			if err == nil {
				t.Fatalf("accepted %q after the value", rest)
			}
		case (err == nil) != (wantErr == nil):
			t.Fatalf("decodeRequest error %v, Decoder error %v", err, wantErr)
		case err == nil:
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("decoded %+v, Decoder decoded %+v", got, want)
			}
			_ = got.Validate()
		}
	})
}

// layeredBody is the static-edits request body: the layered module's IR
// text (about 435 kB as JSON) for a static repair.
func layeredBody(tb testing.TB) []byte {
	return marshal(tb, &cli.Request{Program: "layered.pmir",
		Source: ir.Print(progen.Layered(progen.DefaultLayeredConfig())), Mode: cli.ModeRepair, Static: true})
}

// pclhtBody is the corpus replay's pclht request, the one hippocratesd
// -smoke sends.
func pclhtBody(tb testing.TB) []byte {
	for _, q := range loadgen.CorpusRequests() {
		if q.Program == "pclht.pmc" {
			return marshal(tb, q)
		}
	}
	tb.Fatal("no pclht corpus request")
	return nil
}

func marshal(tb testing.TB, q *cli.Request) []byte {
	body, err := json.Marshal(q)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// postRequest is an HTTP request carrying body with its Content-Length,
// for reading straight through readRequest.
func postRequest(body []byte) *http.Request {
	return &http.Request{Method: http.MethodPost, Body: io.NopCloser(bytes.NewReader(body)), ContentLength: int64(len(body))}
}

// TestDecodeCorpusRequests: every corpus request, a threaded progen
// request and the layered request read back equal to what was sent and
// to the Decoder's decode, with the same cache keys.
func TestDecodeCorpusRequests(t *testing.T) {
	reqs := loadgen.CorpusRequests()
	reqs = append(reqs,
		&cli.Request{Program: "progen-7.pmir", Source: ir.Print(progen.Generate(7, progen.ThreadedConfig(7))), Mode: cli.ModeCheck, Threads: true, Args: []uint64{1, 2}},
		&cli.Request{Program: "layered.pmir", Source: ir.Print(progen.Layered(progen.DefaultLayeredConfig())), Mode: cli.ModeRepair, Static: true})
	for _, q := range reqs {
		body := marshal(t, q)
		var got cli.Request
		if err := readRequest(httptest.NewRecorder(), postRequest(body), &got); err != nil {
			t.Fatalf("%s: %v", q.Program, err)
		}
		want, _, err := decodeWithDecoder(bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, *q) || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded request differs from the one sent or the Decoder's", q.Program)
		}
		if got.Key() != q.Key() || got.SourceKey() != q.SourceKey() {
			t.Errorf("%s: decoded request keys differ", q.Program)
		}
	}
}

// lengthless hides a body's length, so the client sends it chunked.
type lengthless struct{ io.Reader }

// TestRequestBodyAcceptance pins what the daemon accepts and rejects,
// through the handler: every rejection is a 400 error doc, and every
// accepted variant of one check request is answered from the cache
// entry of the plain request, byte for byte, so it decoded to a request
// with the same key.
func TestRequestBodyAcceptance(t *testing.T) {
	s := New(Config{Workers: 1})
	defer shutdown(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body io.Reader) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/api/v1/repair", "application/json", body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}
	const src = `"pm int g;\nint main() {\n\tg = 1;\n\tclwb(&g);\n\tsfence();\n\treturn 0;\n}\n"`
	plain := `{"source":` + src + `,"mode":"check"}`
	resp, want := post(strings.NewReader(plain))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("plain request: HTTP %d: %s", resp.StatusCode, want)
	}

	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"case-folded key", strings.NewReader(`{"Source":` + src + `,"MODE":"check"}`)},
		{"escaped key", strings.NewReader(`{"sou\u0072ce":` + src + `,"mode":"check"}`)},
		{"null then source", strings.NewReader(`{"source":null,"mode":"check","source":` + src + `}`)},
		{"chunked", lengthless{strings.NewReader(plain)}},
	} {
		resp, got := post(tc.body)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: HTTP %d, want 200: %s", tc.name, resp.StatusCode, got)
			continue
		}
		if c := resp.Header.Get("X-Hippocrates-Cache"); c != "hit" || !bytes.Equal(got, want) {
			t.Errorf("%s: cache %q, answer equal %v; want the plain request's cached answer", tc.name, c, bytes.Equal(got, want))
		}
	}

	huge := `{"source":"` + strings.Repeat("a", MaxRequestBytes) + `"}`
	for _, tc := range []struct {
		name string
		body io.Reader
	}{
		{"malformed", strings.NewReader(`{"source":` + src)},
		{"wrong field type", strings.NewReader(`{"source":` + src + `,"steplimit":"many"}`)},
		{"source not a string", strings.NewReader(`{"source":["int main() { return 0; }"]}`)},
		{"unknown field", strings.NewReader(`{"source":` + src + `,"bogus":1}`)},
		{"over MaxRequestBytes", strings.NewReader(huge)},
		{"over MaxRequestBytes, chunked", lengthless{strings.NewReader(huge)}},
		{"trailing bytes", strings.NewReader(plain + ` {}`)},
		{"empty", strings.NewReader("")},
	} {
		resp, got := post(tc.body)
		var doc errorDoc
		dec := json.NewDecoder(bytes.NewReader(got))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&doc); err != nil || doc.Error == "" || doc.Kind != "" {
			t.Errorf("%s: body %.200q is not an error doc (%v)", tc.name, got, err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: HTTP %d, want 400: %s", tc.name, resp.StatusCode, doc.Error)
		}
	}
}

// TestHTTPServerReadTimeouts pins hippocratesd's http.Server: the read
// bounds are the package constants and there is no write timeout. With
// the bounds shortened it then shows what they do: a header that never
// ends and a declared body that never arrives are cut off, while a
// synchronous job that outlasts ReadTimeout still gets its answer.
func TestHTTPServerReadTimeouts(t *testing.T) {
	s := New(Config{Workers: 1, DefaultTimeout: time.Second})
	defer shutdown(t, s)
	hs := s.HTTPServer("127.0.0.1:0")
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || hs.ReadTimeout != ReadTimeout || hs.WriteTimeout != 0 || hs.Handler == nil {
		t.Fatalf("HTTPServer: ReadHeaderTimeout %v, ReadTimeout %v, WriteTimeout %v, handler %v",
			hs.ReadHeaderTimeout, hs.ReadTimeout, hs.WriteTimeout, hs.Handler != nil)
	}
	if ReadHeaderTimeout <= 0 || ReadHeaderTimeout > ReadTimeout {
		t.Fatalf("ReadHeaderTimeout %v should be positive and within ReadTimeout %v", ReadHeaderTimeout, ReadTimeout)
	}

	hs.ReadHeaderTimeout, hs.ReadTimeout = 100*time.Millisecond, 300*time.Millisecond
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go hs.Serve(ln)
	defer hs.Close()
	addr := ln.Addr().String()

	// send writes raw bytes on a fresh connection and returns the first
	// line the server answers, "" if it closes the connection first.
	send := func(raw string) string {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		conn.SetDeadline(time.Now().Add(10 * time.Second))
		if _, err := io.WriteString(conn, raw); err != nil {
			t.Fatal(err)
		}
		line, err := bufio.NewReader(conn).ReadString('\n')
		if ne, ok := err.(net.Error); ok && ne.Timeout() {
			t.Fatalf("%.40q: the server held the connection for 10s", raw)
		}
		return line
	}
	if line := send("POST /api/v1/repair HTTP/1.1\r\nHost: hippocratesd\r\n"); line != "" {
		t.Errorf("unfinished header: server answered %q, want the connection closed", line)
	}
	if line := send("POST /api/v1/repair HTTP/1.1\r\nHost: hippocratesd\r\nContent-Length: 4000000\r\n\r\n{"); !strings.Contains(line, " 400 ") {
		t.Errorf("declared body never sent: server answered %q, want 400", line)
	}

	body := marshal(t, &cli.Request{Program: "spin.pmc", Source: srcSpin, Mode: cli.ModeCheck, StepLimit: 2_000_000_000})
	resp, err := http.Post("http://"+addr+"/api/v1/repair", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Errorf("job outlasting ReadTimeout: HTTP %d %q, want its 504 deadline answer", resp.StatusCode, data)
	}
}

// BenchmarkDecodeRequest reads and decodes a request body as the
// handler does, on the static-edits layered request and on the corpus
// pclht request; the -decoder variants time the json.Decoder decode it
// replaced.
func BenchmarkDecodeRequest(b *testing.B) {
	for _, body := range []struct {
		name string
		data []byte
	}{{"layered", layeredBody(b)}, {"pclht", pclhtBody(b)}} {
		b.Run(body.name, func(b *testing.B) {
			b.SetBytes(int64(len(body.data)))
			b.ReportAllocs()
			for b.Loop() {
				var req cli.Request
				if err := readRequest(nil, postRequest(body.data), &req); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(body.name+"-decoder", func(b *testing.B) {
			b.SetBytes(int64(len(body.data)))
			b.ReportAllocs()
			for b.Loop() {
				r := postRequest(body.data)
				if _, _, err := decodeWithDecoder(http.MaxBytesReader(nil, r.Body, MaxRequestBytes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDecodeRequestBytes bounds the heap cost of reading and decoding
// the layered request, the decode BenchmarkDecodeRequest times: one copy
// of the body and one of the source make it about 2x the body. The
// json.Decoder decode it replaced took about 4.4x. The bound is 2.1x.
// Sent without a Content-Length, the body is read in chunks and then
// joined, one more copy: about 3x, against 5.5x through io.ReadAll. The
// bound is 3.1x.
func TestDecodeRequestBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	body := layeredBody(t)
	for _, c := range []struct {
		name          string
		contentLength int64
		bound         float64
	}{
		{"declared length", int64(len(body)), 2.1},
		{"undeclared length", -1, 3.1},
	} {
		decode := func() {
			r := postRequest(body)
			r.ContentLength = c.contentLength
			var req cli.Request
			if err := readRequest(nil, r, &req); err != nil {
				t.Fatal(err)
			}
		}
		decode()
		const runs = 3
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			decode()
		}
		runtime.ReadMemStats(&after)
		perRun := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f bytes per decode of a %d-byte body (%.2fx)", c.name, perRun, len(body), perRun/float64(len(body)))
		if limit := c.bound * float64(len(body)); perRun > limit {
			t.Errorf("%s: decoding the layered request allocates %.0f bytes, want <= %.0f", c.name, perRun, limit)
		}
	}
}
