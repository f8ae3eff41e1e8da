package pmem

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestSnapshotIsolation(t *testing.T) {
	m := NewMemory()
	m.Write(PMBase, []byte{1, 2, 3, 4})
	m.Write(PMBase+pageSize, []byte{9})

	snap := m.Snapshot()
	if got := snap.Load8(PMBase + 1); got != 2 {
		t.Fatalf("snapshot Load8 = %d, want 2", got)
	}
	if shared := m.stats.PagesShared.Load(); shared != 2 {
		t.Fatalf("PagesShared = %d, want 2", shared)
	}
	if copied := m.stats.PagesCopied.Load(); copied != 0 {
		t.Fatalf("PagesCopied = %d before any write, want 0", copied)
	}

	// A write on either side privatizes only the touched page.
	m.Store8(PMBase, 100)
	snap.Store8(PMBase+2, 200)
	if got := snap.Load8(PMBase); got != 1 {
		t.Errorf("snapshot saw the parent's post-snapshot write: %d", got)
	}
	if got := m.Load8(PMBase + 2); got != 3 {
		t.Errorf("parent saw the snapshot's write: %d", got)
	}
	if copied := m.stats.PagesCopied.Load(); copied != 2 {
		t.Errorf("PagesCopied = %d after one write per side, want 2", copied)
	}
	// The untouched second page is still physically shared.
	if m.lookup((PMBase+pageSize)/pageSize) != snap.lookup((PMBase+pageSize)/pageSize) {
		t.Error("untouched page was copied")
	}
}

func TestSnapshotTwiceStaysIsolated(t *testing.T) {
	m := NewMemory()
	m.Write(HeapBase, []byte{7})
	a := m.Snapshot()
	b := m.Snapshot()
	a.Store8(HeapBase, 1)
	b.Store8(HeapBase, 2)
	m.Store8(HeapBase, 3)
	if a.Load8(HeapBase) != 1 || b.Load8(HeapBase) != 2 || m.Load8(HeapBase) != 3 {
		t.Fatalf("sibling snapshots bleed: a=%d b=%d m=%d",
			a.Load8(HeapBase), b.Load8(HeapBase), m.Load8(HeapBase))
	}
}

func TestOverlayReadsThroughWritesUp(t *testing.T) {
	base := NewMemory()
	base.Write(PMBase, []byte{10, 20, 30})
	base.Store8(PMBase+pageSize, 40)

	ov := base.Overlay()
	if got := ov.Load8(PMBase + 1); got != 20 {
		t.Fatalf("overlay read-through = %d, want 20", got)
	}
	ov.Store8(PMBase+1, 99)
	if got := base.Load8(PMBase + 1); got != 20 {
		t.Errorf("overlay write reached the frozen base: %d", got)
	}
	if got := ov.Load8(PMBase); got != 10 {
		t.Errorf("copy-up lost neighbouring bytes: %d", got)
	}
	// The copied-up page's neighbour in the same chunk still reads
	// through to the base.
	if got := ov.Load8(PMBase + pageSize); got != 40 {
		t.Errorf("overlay read of a neighbouring page = %d, want 40", got)
	}
	// A write to a page absent from the base materializes fresh (no copy).
	before := base.stats.PagesCopied.Load()
	ov.Store8(PMBase+10*pageSize, 5)
	if base.stats.PagesCopied.Load() != before {
		t.Error("write to a base-absent page counted as a copy")
	}
}

func TestSnapshotOfOverlay(t *testing.T) {
	// The ImageBuilder pattern: snapshot the working overlay, keep
	// mutating the overlay, and the handed-out snapshot must not move.
	base := NewMemory()
	base.Write(PMBase+LineSize, []byte{1, 1, 1, 1})
	ov := base.Overlay()
	ov.Write(PMBase+LineSize, []byte{2, 2})

	img := ov.Snapshot()
	ov.Write(PMBase+LineSize, []byte{3, 3, 3})
	got := make([]byte, 4)
	img.Read(PMBase+LineSize, got)
	if !bytes.Equal(got, []byte{2, 2, 1, 1}) {
		t.Fatalf("snapshot moved under later overlay writes: % x", got)
	}
	// And the snapshot still reads the base through the chain.
	if img.Load8(PMBase+LineSize+3) != 1 {
		t.Error("snapshot lost read-through to the overlay's base")
	}
}

func TestCloneFlattensChain(t *testing.T) {
	base := NewMemory()
	base.Write(PMBase, []byte{1, 2, 3})
	ov := base.Overlay()
	ov.Store8(PMBase+1, 9)

	cl := ov.Clone()
	if cl.base != nil {
		t.Fatal("Clone kept a base chain")
	}
	want := []byte{1, 9, 3}
	got := make([]byte, 3)
	cl.Read(PMBase, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("Clone content = % x, want % x", got, want)
	}
	cl.Store8(PMBase, 50)
	if base.Load8(PMBase) != 1 || ov.Load8(PMBase) != 1 {
		t.Error("Clone write reached the originals")
	}
}

// trackerScript drives a tracker through a deterministic little history
// that leaves several pending lines with multi-store sequences: the
// ground the hash/builder equivalence tests walk.
func trackerScript(t *testing.T) *Tracker {
	t.Helper()
	tr := NewTracker()
	seq := 0
	st := func(addr uint64, data ...byte) {
		tr.OnStore(seq, addr, data)
		seq++
	}
	// Durable prefix: two committed lines.
	st(PMBase+LineSize, 0xAA, 0xBB)
	st(PMBase+2*LineSize+8, 0xCC)
	tr.OnFlush(seq, false, PMBase+LineSize)
	seq++
	tr.OnFlush(seq, false, PMBase+2*LineSize)
	seq++
	tr.OnFence(seq)
	seq++
	// Pending tail: three lines, one of them overwriting durable bytes,
	// one with a multi-store sequence including an intra-line overwrite.
	st(PMBase+LineSize, 0x11, 0x22)      // overwrites durable content
	st(PMBase+3*LineSize, 1)             // fresh line, single store
	st(PMBase+4*LineSize, 5, 6, 7, 8)    // fresh line, sequence of 3
	st(PMBase+4*LineSize+8, 0xde, 0xad)  //
	st(PMBase+4*LineSize, 9, 10, 11, 12) // exact overwrite collapses
	st(PMBase+4*LineSize+16, 0xfe)       //
	if got := len(tr.PendingLines()); got != 3 {
		t.Fatalf("script left %d pending lines, want 3", got)
	}
	return tr
}

// captureOf builds the CrashState for a raw tracker (no interpreter, so
// the metadata line is whatever the durable image holds — i.e. empty).
func captureOf(tr *Tracker) *CrashState {
	cs := tr.CaptureCrashState()
	cs.Meta = make([]byte, LineSize)
	cs.Durable.Read(PMBase, cs.Meta)
	return cs
}

// imagesEqual is full byte equality over PM including the metadata line
// (DiffPM alone skips it).
func imagesEqual(a, b *Memory) bool {
	return DiffPM(a, b) == 0 && EqualRange(a, b, PMBase, LineSize)
}

func TestHashCutsMatchesImageContent(t *testing.T) {
	tr := trackerScript(t)
	cs := captureOf(tr)
	sizes := make([]int, len(cs.Lines))
	for i, pl := range cs.Lines {
		sizes[i] = len(pl.Stores)
	}

	// Enumerate every feasible schedule; byte-identical CrashImagePrefix
	// images must hash equal, distinct images must hash distinct (these
	// are a handful of images — a collision here is a bug, not bad luck).
	type entry struct {
		cuts []int
		img  *Memory
		hash uint64
	}
	var all []entry
	var rec func(cuts []int, i int)
	rec = func(cuts []int, i int) {
		if i == len(sizes) {
			c := append([]int(nil), cuts...)
			all = append(all, entry{cuts: c, img: tr.CrashImagePrefix(c), hash: cs.HashCuts(c)})
			return
		}
		for v := 0; v <= sizes[i]; v++ {
			rec(append(cuts, v), i+1)
		}
	}
	rec(nil, 0)

	for i := range all {
		for j := i + 1; j < len(all); j++ {
			same := imagesEqual(all[i].img, all[j].img)
			hashSame := all[i].hash == all[j].hash
			if same != hashSame {
				t.Fatalf("cuts %v vs %v: bytes-equal=%v but hash-equal=%v",
					all[i].cuts, all[j].cuts, same, hashSame)
			}
		}
	}
}

func TestHashCutsClampsLikeCrashImagePrefix(t *testing.T) {
	tr := trackerScript(t)
	cs := captureOf(tr)
	// Out-of-range and short vectors clamp to the same image, so the same
	// hash.
	base := cs.HashCuts(nil)
	if got := cs.HashCuts([]int{0, 0, 0}); got != base {
		t.Error("explicit zero cuts hash differently from nil")
	}
	if got := cs.HashCuts([]int{-5, 0}); got != base {
		t.Error("negative cuts do not clamp to zero")
	}
	allMax := make([]int, len(cs.Lines))
	for i, pl := range cs.Lines {
		allMax[i] = len(pl.Stores)
	}
	over := []int{99, 99, 99}
	if cs.HashCuts(over) != cs.HashCuts(allMax) {
		t.Error("over-length cuts do not clamp to the line size")
	}
}

func TestImageBuilderMatchesCrashImagePrefix(t *testing.T) {
	tr := trackerScript(t)
	cs := captureOf(tr)
	sizes := make([]int, len(cs.Lines))
	for i, pl := range cs.Lines {
		sizes[i] = len(pl.Stores)
	}
	b := cs.NewBuilder()
	rng := rand.New(rand.NewSource(7))
	// Random walk through schedule space, including clamped vectors:
	// after every Seek the builder's image must byte-match the deep
	// reference construction.
	for step := 0; step < 60; step++ {
		cuts := make([]int, len(sizes))
		for i := range cuts {
			cuts[i] = rng.Intn(sizes[i]+3) - 1 // includes -1 and size+1
		}
		b.Seek(cuts)
		got := b.Image()
		want := tr.CrashImagePrefix(cuts)
		if !imagesEqual(got, want) {
			t.Fatalf("step %d cuts %v: builder image diverges from CrashImagePrefix (%d PM bytes differ)",
				step, cuts, DiffPM(got, want))
		}
		if b.Hash() != cs.HashCuts(cuts) {
			t.Fatalf("step %d: builder hash disagrees with HashCuts", step)
		}
	}
}

func TestBuilderImagesStayPristine(t *testing.T) {
	tr := trackerScript(t)
	cs := captureOf(tr)
	b := cs.NewBuilder()
	one := make([]int, len(cs.Lines))
	for i := range one {
		one[i] = 1
	}
	b.Seek(one)
	img := b.Image()
	ref := tr.CrashImagePrefix(one)
	// Later seeks and recovery-style writes to a second image must not
	// disturb the first handed-out image.
	b.Seek(make([]int, len(cs.Lines)))
	img2 := b.Image()
	img2.Store8(PMBase+3*LineSize, 0x77)
	if !imagesEqual(img, ref) {
		t.Fatal("handed-out image changed under later Seek/writes")
	}
}
