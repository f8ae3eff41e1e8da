package cli_test

import (
	"testing"

	"hippocrates/internal/cli"
)

// recoveryMemops persists its one store correctly, and its recovery
// entries write PM through memset, memcpy and flush_range. Recovery boots
// run untracked, so those builtins must not touch a tracker there.
const recoveryMemops = `
pm int cells[16];
int scratch[2];

int invariant_check() {
	memset(&cells[8], 0, 32);
	flush_range(&cells[8], 32);
	sfence();
	return 0;
}

int crash_check(int completed) {
	scratch[0] = 7;
	memcpy(&cells[12], &scratch[0], 8);
	flush_range(&cells[12], 8);
	sfence();
	if (completed >= 1 && cells[0] != 5) { return 1; }
	return 0;
}

int main() {
	cells[0] = 5;
	clwb(&cells[0]);
	sfence();
	pm_checkpoint();
	return 0;
}
`

// TestCrashRecoveryUsesPMBuiltins: a crash-mode request whose recovery
// entries call the PM memory builtins returns a verdict rather than an
// engine error.
func TestCrashRecoveryUsesPMBuiltins(t *testing.T) {
	q := &cli.Request{Program: "memops.pmc", Source: recoveryMemops, Mode: cli.ModeCrash, CrashWorkers: 1}
	if err := q.Validate(); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Run(q, nil)
	if err != nil {
		t.Fatalf("crash mode: %v", err)
	}
	if resp.Crash == nil || !resp.Fixed {
		t.Fatalf("crash verdict = %+v (fixed %v), want a passing sweep", resp.Crash, resp.Fixed)
	}
}
