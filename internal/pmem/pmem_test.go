package pmem

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct{ addr, want uint64 }{
		{0, 0},
		{63, 0},
		{64, 64},
		{PMBase + 100, PMBase + 64},
		{PMBase + 128, PMBase + 128},
	}
	for _, c := range cases {
		if got := LineOf(c.addr); got != c.want {
			t.Errorf("LineOf(%#x) = %#x, want %#x", c.addr, got, c.want)
		}
	}
}

func TestRegionOf(t *testing.T) {
	cases := []struct {
		addr uint64
		want Region
	}{
		{0, RegionInvalid},
		{100, RegionInvalid},
		{NullGuardSize, RegionInvalid},
		{GlobalBase, RegionGlobal},
		{GlobalBase + 1000, RegionGlobal},
		{HeapBase, RegionHeap},
		{HeapBase + 1<<20, RegionHeap},
		{StackBase - 8, RegionStack},
		{StackBase - StackMax, RegionStack},
		{StackBase, RegionInvalid},
		{PMBase, RegionPM},
		{PMBase + DefaultPMSize - 1, RegionPM},
	}
	for _, c := range cases {
		if got := RegionOf(c.addr); got != c.want {
			t.Errorf("RegionOf(%#x) = %v, want %v", c.addr, got, c.want)
		}
	}
	if !IsPM(PMBase) || IsPM(HeapBase) {
		t.Error("IsPM misclassifies")
	}
}

func TestMemoryReadWrite(t *testing.T) {
	m := NewMemory()
	if m.Load8(12345) != 0 {
		t.Error("fresh memory must read zero")
	}
	m.Store8(12345, 0xAB)
	if m.Load8(12345) != 0xAB {
		t.Error("byte write lost")
	}
	m.WriteUint(HeapBase, 8, 0xDEADBEEFCAFE)
	if got := m.ReadUint(HeapBase, 8); got != 0xDEADBEEFCAFE {
		t.Errorf("ReadUint = %#x", got)
	}
	// Little-endian layout.
	if m.Load8(HeapBase) != 0xFE {
		t.Error("memory is not little-endian")
	}
	m.WriteUint(HeapBase+16, 1, 0x1FF)
	if got := m.ReadUint(HeapBase+16, 1); got != 0xFF {
		t.Errorf("1-byte ReadUint = %#x, want 0xff", got)
	}
}

func TestMemoryCrossPage(t *testing.T) {
	m := NewMemory()
	addr := uint64(pageSize*3 - 4) // straddles a page boundary
	src := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	m.Write(addr, src)
	dst := make([]byte, 8)
	m.Read(addr, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("cross-page read mismatch at %d: %v", i, dst)
		}
	}
	if got := m.ReadUint(addr, 8); got != 0x0807060504030201 {
		t.Errorf("cross-page ReadUint = %#x", got)
	}
}

func TestMemoryClone(t *testing.T) {
	m := NewMemory()
	m.WriteUint(PMBase, 8, 42)
	c := m.Clone()
	c.WriteUint(PMBase, 8, 99)
	if m.ReadUint(PMBase, 8) != 42 {
		t.Error("clone aliases original")
	}
	if !equalRange(m, m.Clone(), PMBase, 4096) {
		t.Error("equalRange(false negative)")
	}
	if equalRange(m, c, PMBase, 4096) {
		t.Error("equalRange(false positive)")
	}
}

// equalRange reports whether two memories hold identical bytes over
// [addr, addr+n).
func equalRange(a, b *Memory, addr, n uint64) bool {
	bufA, bufB := make([]byte, n), make([]byte, n)
	a.Read(addr, bufA)
	b.Read(addr, bufB)
	return bytes.Equal(bufA, bufB)
}

func TestMemoryRoundTripQuick(t *testing.T) {
	m := NewMemory()
	f := func(off uint32, v uint64) bool {
		addr := HeapBase + uint64(off)
		m.WriteUint(addr, 8, v)
		return m.ReadUint(addr, 8) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func val(b ...byte) []byte { return b }

func TestTrackerMissingFlushFence(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(1, 2, 3, 4, 5, 6, 7, 8))
	vs := onCheckpoint(tr, 2)
	if len(vs) != 1 {
		t.Fatalf("violations = %d, want 1", len(vs))
	}
	if vs[0].Class != MissingFlushFence {
		t.Errorf("class = %v, want missing-flush&fence", vs[0].Class)
	}
}

func TestTrackerMissingFence(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(9))
	onFlush(tr, 2, false, PMBase)
	vs := onCheckpoint(tr, 3)
	if len(vs) != 1 || vs[0].Class != MissingFence {
		t.Fatalf("violations = %+v, want one missing-fence", vs)
	}
}

func TestTrackerMissingFlush(t *testing.T) {
	// A fence exists after the store, but the store was never flushed:
	// inserting only a flush (before that fence) would fix it.
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(9))
	onFence(tr, 2)
	vs := onCheckpoint(tr, 3)
	if len(vs) != 1 || vs[0].Class != MissingFlush {
		t.Fatalf("violations = %+v, want one missing-flush", vs)
	}
}

func TestTrackerProperPersist(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase+8, val(1, 2, 3, 4, 5, 6, 7, 8))
	if n := onFlush(tr, 2, false, PMBase+8); n != 1 {
		t.Fatalf("flush moved %d stores, want 1", n)
	}
	if n := onFence(tr, 3); n != 1 {
		t.Fatalf("fence drained %d stores, want 1", n)
	}
	if vs := onCheckpoint(tr, 4); len(vs) != 0 {
		t.Fatalf("violations after persist = %+v", vs)
	}
	img := tr.snapshotDurable()
	if got := img.ReadUint(PMBase+8, 8); got != 0x0807060504030201 {
		t.Errorf("durable image = %#x", got)
	}
	if tr.DurableStores != 1 {
		t.Errorf("DurableStores = %d", tr.DurableStores)
	}
}

func TestTrackerCLFLUSHIsOrdered(t *testing.T) {
	// CLFLUSH needs no trailing fence.
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(7))
	if n := onFlush(tr, 2, true, PMBase); n != 1 {
		t.Fatalf("clflush moved %d", n)
	}
	if vs := onCheckpoint(tr, 3); len(vs) != 0 {
		t.Fatalf("violations after clflush = %+v", vs)
	}
	if tr.snapshotDurable().Load8(PMBase) != 7 {
		t.Error("clflush did not commit the store")
	}
}

func TestTrackerNTStore(t *testing.T) {
	tr := NewTracker()
	onNTStore(tr, 1, PMBase, val(5))
	vs := onCheckpoint(tr, 2)
	if len(vs) != 1 || vs[0].Class != MissingFence {
		t.Fatalf("nt-store without fence: %+v, want missing-fence", vs)
	}
	onFence(tr, 3)
	if vs := onCheckpoint(tr, 4); len(vs) != 0 {
		t.Fatalf("nt-store after fence: %+v", vs)
	}
}

func TestTrackerFlushCoversWholeLine(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(1))
	onStore(tr, 2, PMBase+32, val(2))
	onStore(tr, 3, PMBase+64, val(3)) // a different line
	if n := onFlush(tr, 4, false, PMBase+16); n != 2 {
		t.Fatalf("flush moved %d stores, want 2 (whole line)", n)
	}
	onFence(tr, 5)
	vs := onCheckpoint(tr, 6)
	if len(vs) != 1 || vs[0].Store.Addr != PMBase+64 {
		t.Fatalf("violations = %+v, want only the second line's store", vs)
	}
}

func TestTrackerRedundantDiagnostics(t *testing.T) {
	tr := NewTracker()
	onFlush(tr, 1, false, PMBase) // nothing dirty
	if len(tr.RedundantFlushes) != 1 {
		t.Errorf("redundant flushes = %d, want 1", len(tr.RedundantFlushes))
	}
	onFence(tr, 2) // nothing flushed
	if tr.RedundantFences != 1 {
		t.Errorf("redundant fences = %d, want 1", tr.RedundantFences)
	}
	// A useful flush+fence is not redundant.
	onStore(tr, 3, PMBase, val(1))
	onFlush(tr, 4, false, PMBase)
	onFence(tr, 5)
	if len(tr.RedundantFlushes) != 1 || tr.RedundantFences != 1 {
		t.Error("useful flush/fence misreported as redundant")
	}
}

func TestTrackerExactOverwrite(t *testing.T) {
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(1, 1, 1, 1, 1, 1, 1, 1))
	onStore(tr, 2, PMBase, val(2, 2, 2, 2, 2, 2, 2, 2))
	if tr.NumPending() != 1 {
		t.Fatalf("pending = %d, want 1 (exact overwrite replaces)", tr.NumPending())
	}
	onFlush(tr, 3, false, PMBase)
	onFence(tr, 4)
	if got := tr.snapshotDurable().Load8(PMBase); got != 2 {
		t.Errorf("durable byte = %d, want the newer store", got)
	}
}

func TestTrackerCrashImage(t *testing.T) {
	tr := NewTracker()
	// One durable store, one pending.
	onStore(tr, 1, PMBase, val(0xAA))
	onFlush(tr, 2, false, PMBase)
	onFence(tr, 3)
	onStore(tr, 4, PMBase+128, val(0xBB))

	none := tr.CrashImage(func(*TrackedStore) bool { return false })
	if none.Load8(PMBase) != 0xAA || none.Load8(PMBase+128) != 0 {
		t.Error("crash image without evictions must contain only durable bytes")
	}
	all := tr.CrashImage(func(*TrackedStore) bool { return true })
	if all.Load8(PMBase+128) != 0xBB {
		t.Error("crash image with all evictions must contain pending bytes")
	}
}

func TestTrackerCrashImageOrder(t *testing.T) {
	// Two pending stores to the same location: if both are kept, the
	// later one must win.
	tr := NewTracker()
	onStore(tr, 1, PMBase, val(1, 0, 0, 0, 0, 0, 0, 0))
	onStore(tr, 2, PMBase+1, val(9)) // different addr, same line; no replace
	img := tr.CrashImage(func(*TrackedStore) bool { return true })
	if img.Load8(PMBase) != 1 || img.Load8(PMBase+1) != 9 {
		t.Error("crash image does not apply stores in order")
	}
}

func TestTrackerStoreSpanningLinesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("store spanning cache lines must panic")
		}
	}()
	tr := NewTracker()
	onStore(tr, 1, PMBase+60, val(1, 2, 3, 4, 5, 6, 7, 8))
}

// TestTrackerQuickDurability is the detector-soundness property: after a
// random event sequence, a store is reported non-durable at a checkpoint
// if and only if a crash image that drops all pending stores loses its
// bytes.
func TestTrackerQuickDurability(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewTracker()
		type write struct {
			addr uint64
			data byte
			seq  int
		}
		var writes []write
		seq := 0
		for i := 0; i < 40; i++ {
			seq++
			switch rng.Intn(4) {
			case 0, 1:
				addr := PMBase + uint64(rng.Intn(8))*64 + uint64(rng.Intn(56))
				// Values must be pairwise distinct: a store that rewrites
				// a byte already durable at its address is still reported
				// non-durable (the detector does not compare values), but
				// losing it in a crash is invisible to this byte witness.
				b := byte(i + 1)
				onStore(tr, seq, addr, []byte{b})
				writes = append(writes, write{addr, b, seq})
			case 2:
				onFlush(tr, seq, false, PMBase+uint64(rng.Intn(8))*64)
			case 3:
				onFence(tr, seq)
			}
		}
		seq++
		vs := onCheckpoint(tr, seq)
		reported := map[uint64]bool{}
		for _, v := range vs {
			reported[v.Store.Addr] = true
		}
		img := tr.CrashImage(func(*TrackedStore) bool { return false })
		// For each address, find the last write; it must be present in
		// the no-eviction crash image iff it was not reported.
		last := map[uint64]write{}
		for _, w := range writes {
			last[w.addr] = w
		}
		for addr, w := range last {
			present := img.Load8(addr) == w.data
			if present == reported[addr] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestClock(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(2.5)
	if c.Nanoseconds() != 4.0 {
		t.Errorf("clock = %v", c.Nanoseconds())
	}
	c.Reset()
	if c.Nanoseconds() != 0 {
		t.Error("reset failed")
	}
}

func TestDefaultCostModelShape(t *testing.T) {
	cm := DefaultCostModel()
	if cm.LoadPM <= cm.LoadDRAM {
		t.Error("PM loads must be slower than DRAM loads (Optane characteristic)")
	}
	if cm.Flush <= cm.StoreDRAM {
		t.Error("flushes must dominate plain stores")
	}
	if cm.FenceDrainPerLine <= 0 {
		t.Error("fences must pay per drained line")
	}
}

func TestDiffPM(t *testing.T) {
	a, b := NewMemory(), NewMemory()
	if DiffPM(a, b) != 0 {
		t.Error("empty memories must not differ")
	}
	a.WriteUint(PMBase+128, 8, 0xABCD)
	if got := DiffPM(a, b); got != 2 {
		t.Errorf("diff = %d, want 2 bytes", got)
	}
	b.WriteUint(PMBase+128, 8, 0xABCD)
	if DiffPM(a, b) != 0 {
		t.Error("equal PM contents must not differ")
	}
	// The allocator metadata line is excluded.
	a.WriteUint(PMBase, 8, 999)
	if DiffPM(a, b) != 0 {
		t.Error("metadata line must be ignored")
	}
	// Volatile regions are ignored entirely.
	a.WriteUint(HeapBase, 8, 7)
	if DiffPM(a, b) != 0 {
		t.Error("volatile differences must be ignored")
	}
}

func TestSeedDurable(t *testing.T) {
	tr := NewTracker()
	tr.SeedDurable(PMBase+256, []byte{1, 2, 3})
	img := tr.snapshotDurable()
	if img.Load8(PMBase+256) != 1 || img.Load8(PMBase+258) != 3 {
		t.Error("seeded bytes missing from the durable image")
	}
	if tr.TotalStores != 0 || tr.DurableStores != 0 {
		t.Error("seeding must not count as program stores")
	}
}

func TestTrackedStoreAccessors(t *testing.T) {
	tr := NewTracker()
	st := onStore(tr, 1, PMBase+70, val(9, 9))
	if st.Size() != 2 {
		t.Errorf("size = %d", st.Size())
	}
	if st.Line() != PMBase+64 {
		t.Errorf("line = %#x", st.Line())
	}
	if st.State.String() != "dirty" {
		t.Errorf("state = %q", st.State)
	}
	onFlush(tr, 2, false, PMBase+70)
	if st.State.String() != "flushed" {
		t.Errorf("state = %q", st.State)
	}
	onFence(tr, 3)
	if st.State.String() != "durable" {
		t.Errorf("state = %q", st.State)
	}
}

func TestStringersAndErrors(t *testing.T) {
	for _, r := range []Region{RegionGlobal, RegionHeap, RegionStack, RegionPM, RegionInvalid} {
		if r.String() == "" {
			t.Errorf("region %d has no name", int(r))
		}
	}
	for _, c := range []BugClass{MissingFlush, MissingFence, MissingFlushFence} {
		if c.String() == "" {
			t.Errorf("class %d has no name", int(c))
		}
	}
	e := &AddrError{Addr: 0x10, Op: "store"}
	if !strings.Contains(e.Error(), "store") || !strings.Contains(e.Error(), "0x10") {
		t.Errorf("AddrError = %q", e)
	}
}

func TestReadWriteUintOddSizes(t *testing.T) {
	m := NewMemory()
	m.WriteUint(HeapBase+3, 4, 0xAABBCCDD)
	if got := m.ReadUint(HeapBase+3, 4); got != 0xAABBCCDD {
		t.Errorf("4-byte round trip = %#x", got)
	}
	m.WriteUint(HeapBase+100, 2, 0x1234)
	if got := m.ReadUint(HeapBase+100, 2); got != 0x1234 {
		t.Errorf("2-byte round trip = %#x", got)
	}
}
