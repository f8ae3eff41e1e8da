package cli_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/obs"
	"hippocrates/internal/optimize"
)

// The golden files pin the wire encodings the daemon's response cache and
// clients depend on: the Response document as a whole, and inside it the
// repair-provenance audit trail and the crash-verdict report. A change to
// any of these shapes must be deliberate — regenerate with
//
//	UPDATE_GOLDEN=1 go test ./internal/cli/ -run TestGolden
//
// and review the diff like an API change (schema/response.schema.json in
// internal/server usually moves in the same commit).

// goldenPublish has one unflushed store published by a flushed flag; its
// repair is a single inserted flush, so the audit trail, fix list, and
// crash report all stay small enough to eyeball in the golden file.
const goldenPublish = `
pm int payload;
pm int flag;

int invariant_check() {
	if (payload != 0 && payload != 42) { return 1; }
	if (flag != 0 && flag != 1) { return 2; }
	return 0;
}

int crash_check(int completed) {
	if (completed >= 1) {
		if (payload != 42) { return 1; }
		if (flag != 1) { return 2; }
	}
	return 0;
}

int main() {
	payload = 42; // missing flush
	flag = 1;
	clwb(&flag);
	sfence();
	pm_checkpoint();
	return 0;
}
`

func runGolden(t *testing.T, req *cli.Request) []byte {
	t.Helper()
	rec := obs.New()
	root := rec.StartSpan("pipeline")
	resp, err := cli.Run(req, root)
	root.End()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := resp.EncodeJSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	return data
}

// checkGolden compares the wire bytes got against the named golden file,
// rewriting it when UPDATE_GOLDEN is set. The files are stored indented,
// so they stay readable; the wire is compact, so got must equal the
// file compacted plus the trailing newline, byte for byte.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		var file bytes.Buffer
		if err := json.Indent(&file, got, "", "  "); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, file.Len())
		return
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want bytes.Buffer
	if err := json.Compact(&want, file); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want.WriteByte('\n')
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("%s drifted from the golden encoding (UPDATE_GOLDEN=1 to accept):\n%s",
			name, firstDiff(got, want.Bytes()))
	}
}

// firstDiff renders the first divergent region of two encodings.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	lo := i - 80
	if lo < 0 {
		lo = 0
	}
	clip := func(b []byte) string {
		hi := i + 80
		if hi > len(b) {
			hi = len(b)
		}
		return string(b[lo:hi])
	}
	return fmt.Sprintf("first divergence at byte %d\n got: …%s…\nwant: …%s…", i, clip(got), clip(want))
}

// TestGoldenRepairCrashResponse pins the full repair response: fixes,
// audit trail, repaired IR, and the crash-verdict documents (final +
// per-round). CrashWorkers=1 and a private verdict cache make every field
// — including the stats accounting — reproducible.
func TestGoldenRepairCrashResponse(t *testing.T) {
	req := &cli.Request{
		Program:      "publish.pmc",
		Source:       goldenPublish,
		Mode:         cli.ModeRepair,
		CrashCheck:   true,
		CrashPoints:  16,
		CrashImages:  4,
		StepLimit:    10_000_000,
		CrashWorkers: 1,
	}
	checkGolden(t, "repair_crash_publish.golden.json", runGolden(t, req))
}

// TestGoldenStaticRepairResponse pins the static path: same program, no
// execution, audit trail from the static planner.
func TestGoldenStaticRepairResponse(t *testing.T) {
	req := &cli.Request{
		Program: "publish.pmc",
		Source:  goldenPublish,
		Mode:    cli.ModeRepair,
		Static:  true,
	}
	checkGolden(t, "repair_static_publish.golden.json", runGolden(t, req))
}

// goldenMT is the cross-thread unordered-publish showcase: the worker
// persists nothing, main's own clwb+sfence of the shared line masks the
// bug under the default round-robin interleaving, and only exploration
// exposes the schedule where the worker's store is still pending when
// main durably publishes the shard's address.
const goldenMT = `
struct shard {
	int stats;
	int val;
	byte pad[48];
};

struct root {
	shard s;
	byte *head;
};

void worker() {
	root *r = (root*) pm_root(sizeof(root));
	r->s.val = 42; // BUG: published by main with no flush or fence here
}

int main() {
	root *r = (root*) pm_root(sizeof(root));
	int t = spawn(worker);
	r->s.stats = r->s.stats + 1;
	clwb((byte*) &r->s.stats);
	sfence();
	join(t);
	r->head = (byte*) &r->s;
	clwb((byte*) &r->head);
	sfence();
	pm_checkpoint();
	return r->s.val;
}

int invariant_check() {
	root *r = (root*) pm_root(sizeof(root));
	if ((int) r->head != 0) {
		shard *s = (shard*) r->head;
		if (s->val != 42) { return 1; }
	}
	return 0;
}

int crash_check(int completed) {
	root *r = (root*) pm_root(sizeof(root));
	if (completed >= 1) {
		if ((int) r->head == 0) { return 2; }
	}
	return invariant_check();
}
`

// TestGoldenRepairThreadsResponse pins the interleaving-aware repair
// response: the schedules document (explored/pruned accounting, the
// buggy schedule's replayable id) and the per-interleaving crash
// sweeps. CrashWorkers=1 keeps every stats field reproducible.
func TestGoldenRepairThreadsResponse(t *testing.T) {
	req := &cli.Request{
		Program:      "mtpublish.pmc",
		Source:       goldenMT,
		Mode:         cli.ModeRepair,
		Threads:      true,
		MaxSchedules: 16,
		CrashCheck:   true,
		CrashPoints:  16,
		CrashImages:  4,
		StepLimit:    10_000_000,
		CrashWorkers: 1,
	}
	checkGolden(t, "repair_threads_mtpublish.golden.json", runGolden(t, req))
}

// TestGoldenCrashVerdictResponse pins crash mode on the unrepaired
// program: the failure documents (event, kind, cuts, entry, ret) are the
// crash-verdict wire format.
func TestGoldenCrashVerdictResponse(t *testing.T) {
	req := &cli.Request{
		Program:      "publish.pmc",
		Source:       goldenPublish,
		Mode:         cli.ModeCrash,
		CrashPoints:  16,
		CrashImages:  4,
		StepLimit:    10_000_000,
		CrashWorkers: 1,
	}
	checkGolden(t, "crash_publish.golden.json", runGolden(t, req))
}

// goldenOverPersist is clean under the bug finder but flushes its one
// store twice, so an optimize request yields exactly one crashsim-proven
// delete-flush edit — the smallest response that exercises the lints,
// optimize, and optimized_ir wire fields all at once.
const goldenOverPersist = `
pm int slot;

int invariant_check() {
	if (slot < 0 || slot > 3) { return 1; }
	return 0;
}

int crash_check(int completed) {
	int done = completed - 1;
	if (done < 0) { done = 0; }
	if (done > 3) { done = 3; }
	if (slot != done) { return 1; }
	return 0;
}

int main() {
	slot = 0;
	clwb(&slot);
	sfence();
	pm_checkpoint();
	int i = 1;
	while (i <= 3) {
		slot = i;
		clwb(&slot);
		clwb(&slot);
		sfence();
		pm_checkpoint();
		i = i + 1;
	}
	return 0;
}
`

// TestGoldenOptimizeResponse pins the optimize wire format: the candidate
// edit documents (kind, origin, site, accepted, reason, saved_ns), the
// optimize summary counters, the residual lints array, and the optimized
// IR. CrashWorkers=1 keeps the crashsim proof deterministic.
func TestGoldenOptimizeResponse(t *testing.T) {
	req := &cli.Request{
		Program:      "overpersist.pmc",
		Source:       goldenOverPersist,
		Mode:         cli.ModeCheck,
		Optimize:     true,
		CrashPoints:  16,
		CrashImages:  4,
		StepLimit:    10_000_000,
		CrashWorkers: 1,
	}
	checkGolden(t, "optimize_overpersist.golden.json", runGolden(t, req))
}

// TestOptimizeRecoveryEntries: optimize proves verdict identity with the
// recovery entries the request names. The golden program with its
// entries renamed, and named so, optimizes exactly as the golden request
// does; "-" for both entries leaves the pass no crashsim proof.
func TestOptimizeRecoveryEntries(t *testing.T) {
	run := func(src, inv, rec string) *optimize.Result {
		t.Helper()
		resp, err := cli.Run(&cli.Request{
			Program: "overpersist.pmc", Source: src, Mode: cli.ModeCheck, Optimize: true,
			Invariant: inv, Recovery: rec,
			CrashPoints: 16, CrashImages: 4, StepLimit: 10_000_000, CrashWorkers: 1,
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Optimize
	}
	want := run(goldenOverPersist, "", "")
	renamed := strings.NewReplacer("invariant_check", "my_inv", "crash_check", "my_check").Replace(goldenOverPersist)
	got := run(renamed, "my_inv", "my_check")
	if !got.CrashsimProven || !reflect.DeepEqual(got, want) {
		t.Errorf("renamed entries: crashsim proven %v, result %+v; want the golden request's %+v", got.CrashsimProven, got, want)
	}
	if off := run(goldenOverPersist, "-", "-"); off.CrashsimProven || off.CrashPoints != 0 {
		t.Errorf(`entries "-": crashsim proven %v at %d points, want no crashsim proof`, off.CrashsimProven, off.CrashPoints)
	}
}

// TestGoldenStableAcrossRuns re-runs the pinned repair request and
// demands byte equality with itself — determinism independent of the
// checked-in file, so a golden regeneration can't silently bless a
// nondeterministic encoding.
func TestGoldenStableAcrossRuns(t *testing.T) {
	mk := func() *cli.Request {
		return &cli.Request{
			Program:      "publish.pmc",
			Source:       goldenPublish,
			Mode:         cli.ModeRepair,
			CrashCheck:   true,
			CrashPoints:  16,
			CrashImages:  4,
			StepLimit:    10_000_000,
			CrashWorkers: 1,
		}
	}
	a := runGolden(t, mk())
	b := runGolden(t, mk())
	if !bytes.Equal(a, b) {
		t.Errorf("identical requests produced different encodings:\n%s", firstDiff(a, b))
	}
	if mk().Key() != mk().Key() {
		t.Error("request key is not stable")
	}
}
