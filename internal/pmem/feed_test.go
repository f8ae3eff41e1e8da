package pmem

import "slices"

// Thread-0 event feeds for the tracker tests. The machine and the
// detector name the issuing thread on every Store, Flush and Fence; most
// tests drive one thread and read a checkpoint's violations as a slice.

func onStore(t *Tracker, seq int, addr uint64, data []byte) *TrackedStore {
	return t.Store(seq, 0, addr, data, false, true)
}

func onNTStore(t *Tracker, seq int, addr uint64, data []byte) *TrackedStore {
	return t.Store(seq, 0, addr, data, true, true)
}

func onFlush(t *Tracker, seq int, ordered bool, addr uint64) int {
	return t.Flush(seq, 0, ordered, addr)
}

func onFence(t *Tracker, seq int) int { return t.Fence(seq, 0) }

func onCheckpoint(t *Tracker, seq int) []Violation { return slices.Collect(t.Violations(seq)) }
