package cli_test

import (
	"bytes"
	"encoding/json"
	"math"
	"runtime"
	"testing"

	"hippocrates/internal/cli"
	"hippocrates/internal/ir"
	"hippocrates/internal/progen"
)

// TestEncodeJSONBytes bounds the heap cost of encoding the layered
// module's static-repair response, the largest response a daemon static
// repair sends, and checks that the encoding is json.Marshal's plus the
// trailing newline. One encode allocates 1.02x the response's length,
// against 3.03x when it was indented; the bound is 1.17x. The cheapest
// of five encodes is bounded: an encode that misses encoding/json's
// pooled buffer (after a GC, or on another P) regrows it, at several
// times the length, whatever EncodeJSON does.
func TestEncodeJSONBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under the race runtime")
	}
	resp, err := cli.Run(&cli.Request{
		Program: "layered.pmir", Source: ir.Print(progen.Layered(progen.DefaultLayeredConfig())),
		Mode: cli.ModeRepair, Static: true,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := resp.EncodeJSON()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, append(want, '\n')) {
		t.Fatal("EncodeJSON is not json.Marshal's encoding plus a newline")
	}
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := resp.EncodeJSON(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	ratio := float64(least) / float64(len(data))
	t.Logf("%d bytes (%.2fx) per encode of a %d-byte response", least, ratio, len(data))
	if ratio > 1.17 {
		t.Errorf("encoding the layered static-repair response allocates %.2fx its length, want <= 1.17x", ratio)
	}
}
