package static_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"hippocrates/internal/corpus"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
	"hippocrates/internal/static"
)

// The pinned results regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/static/ -run TestPinnedResults
//
// and must not change when only the analyzer's representation does.
const pinnedResultsFile = "pinned_results.txt"

// TestPinnedResults pins what the analysis answers, not how: for every
// corpus and concurrent-corpus program, progen DefaultConfig seeds 0–249,
// ThreadedConfig seeds 0–199 and the layered module, one line with the
// report and lint counts and the sha256 of the Result's JSON; for every
// corpus program, one more line with the sha256 of its functions'
// summary content hashes from a cold store-backed run, which pins the
// store's canonical bytes.
func TestPinnedResults(t *testing.T) {
	var b bytes.Buffer
	line := func(name string, mod *ir.Module, entry string) {
		res, err := static.AnalyzeWithStore(mod, entry, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(&b, "%s reports=%d lints=%d result=%x\n",
			name, len(res.Reports), len(res.Lints), sha256.Sum256(data))
	}
	for _, p := range corpus.All() {
		line("corpus/"+p.Name, p.MustCompile(), p.Entry)
		hashes := static.SummaryHashes(p.MustCompile(), p.Entry)
		names := make([]string, 0, len(hashes))
		for n := range hashes {
			names = append(names, n)
		}
		slices.Sort(names)
		var hb strings.Builder
		for _, n := range names {
			fmt.Fprintf(&hb, "%s=%s\n", n, hashes[n])
		}
		fmt.Fprintf(&b, "corpus/%s summaries=%d hashes=%x\n",
			p.Name, len(names), sha256.Sum256([]byte(hb.String())))
	}
	for _, p := range corpus.MTPrograms() {
		line("mt/"+p.Name, p.MustCompile(), p.Entry)
	}
	for seed := int64(0); seed < 250; seed++ {
		line(fmt.Sprintf("progen/%d", seed), progen.Generate(seed, progen.DefaultConfig()), "main")
	}
	for seed := int64(0); seed < 200; seed++ {
		line(fmt.Sprintf("threaded/%d", seed), progen.Generate(seed, progen.ThreadedConfig(seed)), "main")
	}
	line("layered", progen.Layered(progen.DefaultLayeredConfig()), "main")

	path := filepath.Join("testdata", pinnedResultsFile)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, b.Len())
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	got := strings.Split(b.String(), "\n")
	for i, w := range strings.Split(string(want), "\n") {
		if i >= len(got) {
			t.Fatalf("%s: got %d lines, want %d", path, len(got), i+1)
		}
		if got[i] != w {
			t.Errorf("%s line %d drifted (UPDATE_GOLDEN=1 to accept):\n got: %s\nwant: %s", path, i+1, got[i], w)
		}
	}
	if n := len(strings.Split(string(want), "\n")); len(got) > n {
		t.Errorf("%s: got %d lines, want %d", path, len(got), n)
	}
}
