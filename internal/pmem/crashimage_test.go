package pmem

import (
	"reflect"
	"testing"
)

// TestPendingLinesGrouping: interleaved stores to several lines come back
// grouped per line, sequence-ordered within a group, groups ordered by
// line address — the stable coordinate system crash-schedule enumeration
// indexes into.
func TestPendingLinesGrouping(t *testing.T) {
	tr := NewTracker()
	lineA := uint64(PMBase)
	lineB := uint64(PMBase + 128)
	onStore(tr, 1, lineB+8, val(1))
	onStore(tr, 2, lineA, val(2))
	onStore(tr, 3, lineB+16, val(3))
	onStore(tr, 4, lineA+8, val(4))

	pls := tr.PendingLines()
	if len(pls) != 2 {
		t.Fatalf("pending lines = %d, want 2", len(pls))
	}
	if pls[0].Line != lineA || pls[1].Line != lineB {
		t.Fatalf("line order = %#x, %#x; want ascending addresses", pls[0].Line, pls[1].Line)
	}
	if len(pls[0].Stores) != 2 || len(pls[1].Stores) != 2 {
		t.Fatalf("store counts = %d, %d; want 2, 2", len(pls[0].Stores), len(pls[1].Stores))
	}
	if pls[0].Stores[0].Seq != 2 || pls[0].Stores[1].Seq != 4 {
		t.Errorf("line A sequence = %d, %d; want 2, 4", pls[0].Stores[0].Seq, pls[0].Stores[1].Seq)
	}
	if pls[1].Stores[0].Seq != 1 || pls[1].Stores[1].Seq != 3 {
		t.Errorf("line B sequence = %d, %d; want 1, 3", pls[1].Stores[0].Seq, pls[1].Stores[1].Seq)
	}
	// Deterministic: a second call yields the identical grouping.
	again := tr.PendingLines()
	if !reflect.DeepEqual(pls, again) {
		t.Error("PendingLines is not deterministic")
	}
}

// TestPendingLinesAfterPersist: flushed-and-fenced stores leave the
// pending set; flushed-but-unfenced stores stay (they may or may not have
// reached PM, which is exactly what the schedule model explores).
func TestPendingLinesAfterPersist(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(9))
	onStore(tr, 2, PMBase+64, val(8))
	onFlush(tr, 3, false, PMBase)
	if got := len(tr.PendingLines()); got != 2 {
		t.Fatalf("after flush: %d pending lines, want 2 (flush alone is not durability)", got)
	}
	onFence(tr, 4)
	pls := tr.PendingLines()
	if len(pls) != 1 || pls[0].Line != PMBase+64 {
		t.Fatalf("after fence: pending = %+v, want only the unflushed line", pls)
	}
}

// TestCrashImagePrefix: the cuts vector selects a per-line prefix; cut
// values are clamped and missing entries mean nothing survived.
func TestCrashImagePrefix(t *testing.T) {
	tr := NewTracker()
	addr := uint64(PMBase + 256)
	onStore(tr, 1, addr, val(1))
	onStore(tr, 2, addr+8, val(2))
	onStore(tr, 3, addr+16, val(3))

	if got := crashImagePrefix(tr, []int{0}).Load8(addr); got != 0 {
		t.Errorf("cut 0: byte = %d, want durable zero", got)
	}
	img := crashImagePrefix(tr, []int{2})
	if img.Load8(addr) != 1 || img.Load8(addr+8) != 2 || img.Load8(addr+16) != 0 {
		t.Errorf("cut 2: bytes = %d,%d,%d; want prefix 1,2,0",
			img.Load8(addr), img.Load8(addr+8), img.Load8(addr+16))
	}
	// Clamping: negative and oversized cuts, and a missing entry.
	if got := crashImagePrefix(tr, []int{-5}).Load8(addr); got != 0 {
		t.Errorf("negative cut: byte = %d, want 0", got)
	}
	img = crashImagePrefix(tr, []int{99})
	if img.Load8(addr+16) != 3 {
		t.Errorf("oversized cut: byte = %d, want full prefix", img.Load8(addr+16))
	}
	if got := crashImagePrefix(tr, nil).Load8(addr); got != 0 {
		t.Errorf("nil cuts: byte = %d, want durable image", got)
	}
}

// TestCrashImagePrefixCollapsesOverwrites: an exact overwrite replaces
// the pending store in place, so prefixes range over the line's current
// sequence, never resurrecting the overwritten value.
func TestCrashImagePrefixCollapsesOverwrites(t *testing.T) {
	tr := NewTracker()
	addr := uint64(PMBase + 512)
	onStore(tr, 1, addr, val(0xAA))
	onStore(tr, 2, addr, val(0xBB))
	pls := tr.PendingLines()
	if len(pls) != 1 || len(pls[0].Stores) != 1 {
		t.Fatalf("pending = %+v, want one collapsed store", pls)
	}
	if got := crashImagePrefix(tr, []int{1}).Load8(addr); got != 0xBB {
		t.Errorf("prefix 1: byte = %#x, want the overwriting value", got)
	}
}

// TestCrashImagePrefixAgreesWithCrashImage: the prefix model's corner
// schedules coincide with the legacy keep-function image builder — the
// all-zero cut is the keep-nothing image (durable only) and the all-max
// cut is the keep-everything image.
func TestCrashImagePrefixAgreesWithCrashImage(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(1, 2, 3))
	onStore(tr, 2, PMBase+64, val(4))
	onStore(tr, 3, PMBase+70, val(5, 6))
	onStore(tr, 4, PMBase+128, val(7))
	onFlush(tr, 5, false, PMBase+128)
	onFence(tr, 6)

	pls := tr.PendingLines()
	zero := make([]int, len(pls))
	full := make([]int, len(pls))
	for i, pl := range pls {
		full[i] = len(pl.Stores)
	}
	probe := []uint64{PMBase, PMBase + 64, PMBase + 70, PMBase + 128}

	worst := tr.CrashImage(func(*TrackedStore) bool { return false })
	gotWorst := crashImagePrefix(tr, zero)
	best := tr.CrashImage(func(*TrackedStore) bool { return true })
	gotBest := crashImagePrefix(tr, full)
	for _, a := range probe {
		if worst.Load8(a) != gotWorst.Load8(a) {
			t.Errorf("all-zero cut differs from CrashImage(nil) at %#x", a)
		}
		if best.Load8(a) != gotBest.Load8(a) {
			t.Errorf("all-max cut differs from keep-all CrashImage at %#x", a)
		}
	}
	if gotBest.Load8(PMBase) != 1 || gotBest.Load8(PMBase+128) != 7 {
		t.Error("all-max image lost stored bytes")
	}
}

// crashImagePrefix is the reference post-crash image for one crash
// schedule under the per-line prefix model, built from the tracker by
// hand: for the i-th pending line (in PendingLines order), the first
// cuts[i] stores reached PM before the crash and the rest were lost. Cut
// values outside [0, len(Stores)] are clamped; missing entries mean 0
// (nothing from that line survived). Exact overwrites collapse pending
// stores (see Tracker.Store), so a prefix reflects the line's current
// pending sequence, not every historical intermediate value — the same
// approximation CrashImage makes. ImageBuilder must match it.
func crashImagePrefix(t *Tracker, cuts []int) *Memory {
	t.syncDurable()
	img := t.durable.Clone()
	for i, pl := range t.PendingLines() {
		cut := 0
		if i < len(cuts) {
			cut = min(max(cuts[i], 0), len(pl.Stores))
		}
		for _, st := range pl.Stores[:cut] {
			img.Write(st.Addr, st.Data())
		}
	}
	return img
}
