// Package pmem models the persistent-memory hardware that the paper's
// evaluation runs on: a byte-addressable PM range behind a write-back CPU
// cache. The model implements the durability semantics of §2.1/§4.2 of the
// Hippocrates paper — stores to PM are volatile until the affected cache
// line is flushed (CLWB/CLFLUSHOPT/CLFLUSH) and, for the weakly-ordered
// flush flavours, a store fence (SFENCE/MFENCE) retires the flush. The
// package provides the sparse simulated memory, the per-store durability
// tracker (the same state machine pmemcheck implements over Valgrind), the
// crash-image generator used by the "do no harm" property tests, and the
// latency cost model used by the performance experiments (Fig. 4).
package pmem

import "fmt"

// LineSize is the CPU cache-line size in bytes; flushes operate on
// LineSize-aligned lines.
const LineSize = 64

// LineOf returns the base address of the cache line containing addr.
func LineOf(addr uint64) uint64 { return addr &^ (LineSize - 1) }

// The simulated address-space layout. The regions are deliberately far
// apart so out-of-bounds arithmetic faults instead of silently crossing a
// region boundary.
const (
	// NullGuardSize: addresses below this fault, so null-pointer
	// dereferences (and small offsets from null) are caught.
	NullGuardSize = 1 << 16

	// GlobalBase is where volatile globals are placed.
	GlobalBase = 0x0000_1000_0000

	// HeapBase is where malloc carves volatile allocations from.
	HeapBase = 0x0000_4000_0000

	// StackBase is where the (downward-growing) stack starts; the stack
	// region is [StackBase-StackMax, StackBase).
	StackBase = 0x0000_8000_0000

	// StackMax is the maximum stack depth in bytes.
	StackMax = 0x1000_0000

	// MaxThreads bounds the threads of one simulated machine, main
	// included: the stack is partitioned into this many segments, and
	// thread ids (which size the tracker's per-thread state) lie in
	// [0, MaxThreads). A replayed trace naming a larger id is rejected.
	MaxThreads = 16

	// PMBase is the start of the persistent-memory range; pm globals and
	// pm_alloc allocations live here.
	PMBase = 0x1000_0000_0000

	// DefaultPMSize is the default capacity of the PM range.
	DefaultPMSize = 1 << 30
)

// Region classifies an address.
type Region int

// The address-space regions.
const (
	RegionInvalid Region = iota
	RegionGlobal
	RegionHeap
	RegionStack
	RegionPM
)

func (r Region) String() string {
	switch r {
	case RegionGlobal:
		return "global"
	case RegionHeap:
		return "heap"
	case RegionStack:
		return "stack"
	case RegionPM:
		return "pm"
	}
	return "invalid"
}

// RegionOf classifies addr by the layout above.
func RegionOf(addr uint64) Region {
	switch {
	case addr < NullGuardSize:
		return RegionInvalid
	case addr >= PMBase:
		return RegionPM
	case addr >= StackBase:
		return RegionInvalid // between the stack top and PM
	case addr >= StackBase-StackMax:
		return RegionStack // stack grows down from StackBase
	case addr >= HeapBase:
		return RegionHeap
	case addr >= GlobalBase:
		return RegionGlobal
	default:
		return RegionInvalid // between the null guard and the globals
	}
}

// IsPM reports whether addr is in the persistent range.
func IsPM(addr uint64) bool { return addr >= PMBase }

// AddrError is returned for invalid memory accesses.
type AddrError struct {
	Addr uint64
	Op   string
}

func (e *AddrError) Error() string {
	return fmt.Sprintf("pmem: invalid %s at address %#x (%s region)", e.Op, e.Addr, RegionOf(e.Addr))
}
