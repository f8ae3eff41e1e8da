package cli_test

import (
	"bytes"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/crashsim"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

const keySource = "pm int g[4];\nint main() {\n  g[0] = 1;\n  return 0;\n}\n"

// TestSourceKeyPinned pins SourceKey to fixed values: the daemon picks a
// program's worker shard and artifact-cache entry by this key, so a
// change here silently moves every program to another shard. The long
// source spans several of the hash's input buffers, so the pin also
// proves the streamed digest equals the one-shot one.
func TestSourceKeyPinned(t *testing.T) {
	for _, c := range []struct {
		req  cli.Request
		want string
	}{
		{cli.Request{Program: "publish.pmc", Source: keySource}, "4d1cf674b46de81253972a1fd0a60ecefd12dcee8805cdb9a4eb2a2d8aa31396"},
		{cli.Request{Source: strings.Repeat("x", 10000)}, "ba03ce29e36df51d78191bf6336335b85f50190b69884c633c84b879b787c773"},
		{cli.Request{Program: "request.pmc", Source: strings.Repeat("x", 10000)}, "ba03ce29e36df51d78191bf6336335b85f50190b69884c633c84b879b787c773"},
	} {
		if got := c.req.SourceKey(); got != c.want {
			t.Errorf("SourceKey(%q, %d bytes) = %s, want %s", c.req.Program, len(c.req.Source), got, c.want)
		}
	}
}

// TestKeyCoversEverySourceByte flips one source byte at a time, on both
// sides of the hash's buffer boundaries: every flip must change Key.
func TestKeyCoversEverySourceByte(t *testing.T) {
	src := strings.Repeat(keySource, 200)
	base := (&cli.Request{Program: "p.pmc", Source: src}).Key()
	for _, i := range []int{0, 1, 4095, 4096, 4097, len(src) / 2, len(src) - 1} {
		b := []byte(src)
		b[i] ^= 1
		if (&cli.Request{Program: "p.pmc", Source: string(b)}).Key() == base {
			t.Errorf("flipping source byte %d left Key unchanged", i)
		}
	}
	if (&cli.Request{Program: "q.pmc", Source: src}).Key() == base {
		t.Error("renaming the program left Key unchanged")
	}
	if (&cli.Request{Program: "p.pmc", Source: src, Mode: cli.ModeCheck}).Key() == base {
		t.Error("changing the mode left Key unchanged")
	}
}

// TestKeyIgnoresTransientFields: the in-process fields do not change the
// work a request asks for, so they must not split the response cache.
func TestKeyIgnoresTransientFields(t *testing.T) {
	mk := func() *cli.Request {
		return &cli.Request{Program: "p.pmc", Source: keySource, CrashCheck: true}
	}
	base := mk().Key()
	for name, set := range map[string]func(*cli.Request){
		"CrashWorkers": func(q *cli.Request) { q.CrashWorkers = 3 },
		"DebugScores":  func(q *cli.Request) { q.DebugScores = &bytes.Buffer{} },
		"CrashCache":   func(q *cli.Request) { q.CrashCache = crashsim.NewVerdictCache() },
		"SummaryStore": func(q *cli.Request) { q.SummaryStore = static.NewStore(8) },
		"ReplayTrace":  func(q *cli.Request) { q.ReplayTrace = &trace.Trace{} },
		"CrashLog":     func(q *cli.Request) { q.CrashLog = &bytes.Buffer{} },
	} {
		q := mk()
		set(q)
		if q.Key() != base {
			t.Errorf("setting %s changed Key", name)
		}
	}
}

// TestKeyStableUnderValidate: Key hashes the normalized request, so
// filling in the defaults (as Validate does) must not change it.
func TestKeyStableUnderValidate(t *testing.T) {
	q := &cli.Request{Source: keySource, Mode: cli.ModeCrash}
	before, beforeSrc := q.Key(), q.SourceKey()
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	if q.Key() != before || q.SourceKey() != beforeSrc {
		t.Error("Validate's normalization changed the keys")
	}
	explicit := &cli.Request{Program: "request.pmc", Source: keySource, Mode: cli.ModeCrash,
		Entry: "main", Marks: "full-aa", Flush: "clwb", CrashCheck: true}
	if explicit.Key() != before {
		t.Error("spelling out the defaults changed Key")
	}
}
