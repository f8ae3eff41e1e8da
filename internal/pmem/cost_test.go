package pmem

import "testing"

// costOp is one PM operation kind in a hand-built event sequence priced
// by sequenceCost.
type costOp int

// The sequence-cost operation kinds.
const (
	// costStore is a cached PM store: the line turns dirty.
	costStore costOp = iota
	// costNTStore is a non-temporal PM store: it bypasses the cache and
	// parks the line in the write-pending queue (born flushed).
	costNTStore
	// costFlush is a weakly-ordered flush (CLWB/CLFLUSHOPT): a dirty
	// line parks in the write-pending queue; re-flushing a parked or
	// clean line still pays issue latency but moves nothing.
	costFlush
	// costCLFlush is a strongly-ordered CLFLUSH: a pending line writes
	// back immediately.
	costCLFlush
	// costFence is SFENCE/MFENCE: it stalls for every parked line.
	costFence
)

// costEvent is one PM operation at a cache line. Line identifies the
// cache line operated on; its value only matters for equality between
// events.
type costEvent struct {
	Op   costOp
	Line uint64
}

// sequenceCost prices a PM event sequence under the model, mirroring the
// interpreter's accounting: stores pay StorePM; flushes pay issue latency
// always and CLFLUSH write-back only when the line had pending content;
// fences pay FenceBase plus FenceDrainPerLine per parked line.
func sequenceCost(c *CostModel, evs []costEvent) float64 {
	ns := 0.0
	dirty := make(map[uint64]bool)
	parked := make(map[uint64]bool)
	for _, e := range evs {
		switch e.Op {
		case costStore:
			ns += c.StorePM
			dirty[e.Line] = true
		case costNTStore:
			ns += c.StorePM
			parked[e.Line] = true
		case costFlush:
			ns += c.Flush
			if dirty[e.Line] {
				delete(dirty, e.Line)
				parked[e.Line] = true
			}
		case costCLFlush:
			ns += c.Flush
			if dirty[e.Line] || parked[e.Line] {
				ns += c.FlushWriteback
				delete(dirty, e.Line)
				delete(parked, e.Line)
			}
		case costFence:
			ns += c.FenceBase + float64(len(parked))*c.FenceDrainPerLine
			clear(parked)
		}
	}
	return ns
}

// TestDefaultCostModelInvariants pins the relative shape the benchmarks
// and the optimizer's savings estimates depend on: everything
// non-negative, PM dearer than DRAM, flush issue latency well above a
// store, a draining fence dearer than an empty one, and a non-temporal
// store cheaper than the store+flush it replaces.
func TestDefaultCostModelInvariants(t *testing.T) {
	c := DefaultCostModel()
	fields := map[string]float64{
		"ALUOp": c.ALUOp, "LoadDRAM": c.LoadDRAM, "StoreDRAM": c.StoreDRAM,
		"LoadPM": c.LoadPM, "StorePM": c.StorePM, "Flush": c.Flush,
		"FlushWriteback": c.FlushWriteback, "FenceBase": c.FenceBase,
		"FenceDrainPerLine": c.FenceDrainPerLine, "Call": c.Call,
	}
	for name, v := range fields {
		if v < 0 {
			t.Errorf("%s = %v, want non-negative", name, v)
		}
	}
	if c.LoadPM <= c.LoadDRAM {
		t.Errorf("LoadPM %v <= LoadDRAM %v; PM reads must cost more", c.LoadPM, c.LoadDRAM)
	}
	if c.Flush <= c.StorePM {
		t.Errorf("Flush %v <= StorePM %v; flush issue latency must dominate a store", c.Flush, c.StorePM)
	}
	if c.FenceDrainPerLine <= c.FenceBase {
		t.Errorf("FenceDrainPerLine %v <= FenceBase %v; draining must dominate an empty fence", c.FenceDrainPerLine, c.FenceBase)
	}
	// NT-store vs flush ordering: persisting one line non-temporally
	// (ntstore; fence) must be cheaper than the cached path (store;
	// flush; fence) — the whole point of non-temporal writes.
	nt := sequenceCost(c, []costEvent{{costNTStore, 0}, {costFence, 0}})
	cached := sequenceCost(c, []costEvent{{costStore, 0}, {costFlush, 0}, {costFence, 0}})
	if nt >= cached {
		t.Errorf("ntstore+fence = %v >= store+flush+fence = %v", nt, cached)
	}
}

// TestSequenceCost prices hand-built traces and checks the exact sums,
// so the model's before/after deltas rest on tested arithmetic.
func TestSequenceCost(t *testing.T) {
	c := DefaultCostModel()
	cases := []struct {
		name string
		evs  []costEvent
		want float64
	}{
		{"empty", nil, 0},
		{"store only", []costEvent{{costStore, 0}}, c.StorePM},
		{
			"persist one line",
			[]costEvent{{costStore, 0}, {costFlush, 0}, {costFence, 0}},
			c.StorePM + c.Flush + c.FenceBase + c.FenceDrainPerLine,
		},
		{
			// The redundant re-flush of a parked line pays issue latency
			// but adds nothing to the fence drain — exactly the waste the
			// optimizer deletes.
			"redundant double flush",
			[]costEvent{{costStore, 0}, {costFlush, 0}, {costFlush, 0}, {costFence, 0}},
			c.StorePM + 2*c.Flush + c.FenceBase + c.FenceDrainPerLine,
		},
		{
			// A fence with nothing parked pays only the issue cost.
			"redundant fence",
			[]costEvent{{costStore, 0}, {costFlush, 0}, {costFence, 0}, {costFence, 0}},
			c.StorePM + c.Flush + 2*c.FenceBase + c.FenceDrainPerLine,
		},
		{
			// Two dirty lines drain at one fence: per-line stall.
			"two lines one fence",
			[]costEvent{
				{costStore, 0}, {costStore, 64},
				{costFlush, 0}, {costFlush, 64}, {costFence, 0},
			},
			2*c.StorePM + 2*c.Flush + c.FenceBase + 2*c.FenceDrainPerLine,
		},
		{
			// Same-line flush coalescing in the write-pending queue: two
			// stores to one line, two flushes, still one drain.
			"same line coalesces",
			[]costEvent{
				{costStore, 0}, {costFlush, 0}, {costStore, 0}, {costFlush, 0}, {costFence, 0},
			},
			2*c.StorePM + 2*c.Flush + c.FenceBase + c.FenceDrainPerLine,
		},
		{
			// CLFLUSH commits immediately: write-back at the flush, then
			// the fence finds nothing parked. Re-CLFLUSHing a clean line
			// pays issue latency only.
			"clflush immediate",
			[]costEvent{
				{costStore, 0}, {costCLFlush, 0}, {costCLFlush, 0}, {costFence, 0},
			},
			c.StorePM + 2*c.Flush + c.FlushWriteback + c.FenceBase,
		},
		{
			"ntstore parks without flush",
			[]costEvent{{costNTStore, 0}, {costFence, 0}},
			c.StorePM + c.FenceBase + c.FenceDrainPerLine,
		},
	}
	for _, tc := range cases {
		if got := sequenceCost(c, tc.evs); got != tc.want {
			t.Errorf("%s: sequenceCost = %v, want %v", tc.name, got, tc.want)
		}
	}
}
