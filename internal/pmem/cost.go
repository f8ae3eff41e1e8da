package pmem

// CostModel assigns simulated latencies (in nanoseconds) to the operations
// the interpreter executes. The constants follow the published Optane DC
// characterization numbers the paper cites (§1: PM read latency 2–3×
// DRAM; flushes tens of nanoseconds; fences serialize pending flushes).
// Absolute values are not meant to match the authors' testbed — only the
// relative shape matters for Fig. 4: flushing volatile data wastes flush
// latency, and every extra fence stalls until its pending flushes drain.
type CostModel struct {
	// ALUOp is the cost of arithmetic, comparisons, casts and branches.
	ALUOp float64
	// LoadDRAM / StoreDRAM are cache-hit volatile access costs.
	LoadDRAM  float64
	StoreDRAM float64
	// LoadPM / StorePM are PM access costs (store goes to the cache, but
	// PM rows are slower to open on a miss; modeled as a flat premium).
	LoadPM  float64
	StorePM float64
	// Flush is the issue cost of CLWB/CLFLUSHOPT/CLFLUSH regardless of
	// the target region — flushing volatile data costs the same as
	// flushing PM, which is exactly why intraprocedural fixes inside
	// functions like memcpy are expensive (§3.2).
	Flush float64
	// FlushWriteback is the write-back cost charged when a flush commits
	// a line immediately (strongly-ordered CLFLUSH). Weakly-ordered
	// flushes (CLWB/CLFLUSHOPT) park the line in the write-pending queue,
	// where repeated flushes of one line coalesce; their write-back is
	// paid per line at the draining fence (FenceDrainPerLine).
	FlushWriteback float64
	// FenceBase is the issue cost of SFENCE/MFENCE.
	FenceBase float64
	// FenceDrainPerLine is the stall per pending flushed cache line the
	// fence must wait for (the PM writes complete inside the fence).
	FenceDrainPerLine float64
	// Call is the call/return overhead.
	Call float64
}

// DefaultCostModel returns the calibrated model used by the benchmarks.
func DefaultCostModel() *CostModel {
	return &CostModel{
		ALUOp:             0.4,
		LoadDRAM:          1.0,
		StoreDRAM:         1.0,
		LoadPM:            3.0,
		StorePM:           1.5,
		Flush:             24.0,
		FlushWriteback:    90.0,
		FenceBase:         8.0,
		FenceDrainPerLine: 90.0,
		Call:              2.0,
	}
}

// Clock accumulates simulated time.
type Clock struct {
	ns float64
}

// Advance adds ns nanoseconds.
func (c *Clock) Advance(ns float64) { c.ns += ns }

// Nanoseconds returns the elapsed simulated time.
func (c *Clock) Nanoseconds() float64 { return c.ns }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.ns = 0 }
