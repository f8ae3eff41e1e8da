package pmem

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// resetRegions are the bases of the address windows the reset streams
// touch: two chunks each of heap, stack and PM.
var resetRegions = [...]uint64{HeapBase, StackBase - 2*chunkSize, PMBase}

const resetWindow = 2 * chunkSize

// The reset-stream operation kinds, picked by an op's first byte.
const (
	resetWrite = iota
	resetWrite2
	resetWrite3
	resetRead
	resetSnapshot
	resetSnapWrite
	resetOverlay
	resetReset
	numResetOps
)

// resetDiffer drives one reused memory and, beside it, a fresh memory
// that is replaced by NewMemory() wherever the reused one is Reset. Each
// snapshot is taken of both, and the pair must keep reading alike.
type resetDiffer struct {
	reused, fresh *Memory
	snaps         [][2]*Memory
	resets        int
}

// step applies the operation that the four bytes b encode: b[0] picks the
// kind, the region and (for snapshot writes) the snapshot; b[1:3] the
// offset in the region's window; b[3] the length and values of a write.
func (d *resetDiffer) step(b [4]byte) error {
	kind := int(b[0]) % numResetOps
	region := resetRegions[int(b[0])/numResetOps%len(resetRegions)]
	addr := region + (uint64(b[1])<<8|uint64(b[2]))%resetWindow
	data := make([]byte, 1+int(b[3])%24)
	for i := range data {
		data[i] = b[3] + byte(i) | 1 // never zero, so a stale byte shows
	}
	switch kind {
	case resetWrite, resetWrite2, resetWrite3:
		d.reused.Write(addr, data)
		d.fresh.Write(addr, data)
	case resetRead:
		got, want := make([]byte, len(data)), make([]byte, len(data))
		d.reused.Read(addr, got)
		d.fresh.Read(addr, want)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("read at %#x: % x, fresh memory % x", addr, got, want)
		}
		if addr%pageSize <= pageSize-8 {
			if g, w := d.reused.ReadUint(addr, 8), d.fresh.ReadUint(addr, 8); g != w {
				return fmt.Errorf("ReadUint at %#x: %#x, fresh memory %#x", addr, g, w)
			}
		}
	case resetSnapshot:
		d.snaps = append(d.snaps, [2]*Memory{d.reused.Snapshot(), d.fresh.Snapshot()})
	case resetSnapWrite:
		if len(d.snaps) == 0 {
			return nil
		}
		s := d.snaps[int(b[0])/numResetOps%len(d.snaps)]
		s[0].Write(addr, data)
		s[1].Write(addr, data)
	case resetOverlay:
		// An overlay lives only while its base is not written: write it,
		// compare it, and drop it before the next operation.
		ro, fo := d.reused.Overlay(), d.fresh.Overlay()
		ro.Write(addr, data)
		fo.Write(addr, data)
		if err := sameWindows(ro, fo); err != nil {
			return fmt.Errorf("overlay: %v", err)
		}
	case resetReset:
		d.reused.Reset()
		d.fresh = NewMemory()
		d.resets++
		s := d.reused.Stats()
		if s.Snapshots.Load() != 0 || s.PagesShared.Load() != 0 || s.PagesCopied.Load() != 0 {
			return fmt.Errorf("stats after Reset: %d snapshots, %d pages shared, %d copied; want a fresh memory's zeros",
				s.Snapshots.Load(), s.PagesShared.Load(), s.PagesCopied.Load())
		}
		return d.check()
	}
	return nil
}

// check compares the reused memory with the fresh one, and every
// snapshot with its twin, over the whole windows.
func (d *resetDiffer) check() error {
	if err := sameWindows(d.reused, d.fresh); err != nil {
		return fmt.Errorf("after %d resets: %v", d.resets, err)
	}
	for i, s := range d.snaps {
		if err := sameWindows(s[0], s[1]); err != nil {
			return fmt.Errorf("snapshot %d after %d resets: %v", i, d.resets, err)
		}
	}
	return nil
}

// sameWindows reports the first byte where a and b differ in the
// windows.
func sameWindows(a, b *Memory) error {
	bufA, bufB := make([]byte, resetWindow), make([]byte, resetWindow)
	for _, r := range resetRegions {
		a.Read(r, bufA)
		b.Read(r, bufB)
		if bytes.Equal(bufA, bufB) {
			continue
		}
		for i := range bufA {
			if bufA[i] != bufB[i] {
				return fmt.Errorf("byte %#x reads %#x, want %#x", r+uint64(i), bufA[i], bufB[i])
			}
		}
	}
	return nil
}

// runResetStream runs the operations stream encodes and checks the
// memories at the end.
func runResetStream(stream []byte) error {
	d := &resetDiffer{reused: NewMemory(), fresh: NewMemory()}
	for i := 0; i+4 <= len(stream); i += 4 {
		if err := d.step([4]byte(stream[i : i+4])); err != nil {
			return fmt.Errorf("op %d (% x): %v", i/4, stream[i:i+4], err)
		}
	}
	return d.check()
}

// op encodes one reset-stream operation.
func resetOp(kind, region int, off uint16, v byte) []byte {
	return []byte{byte(region*numResetOps + kind), byte(off >> 8), byte(off), v}
}

// TestMemoryResetMatchesFresh: over hand-built and random streams of
// writes, reads, snapshots, snapshot writes, overlays and resets, a
// memory reused through Reset reads exactly like a fresh one, its stats
// restart at zero, and every snapshot taken before a reset keeps its
// bytes.
func TestMemoryResetMatchesFresh(t *testing.T) {
	cat := func(ops ...[]byte) []byte { return bytes.Join(ops, nil) }
	cases := map[string][]byte{
		// A page written, then reset: it must read zeros again.
		"stale page": cat(resetOp(resetWrite, 0, 10, 7), resetOp(resetReset, 0, 0, 0), resetOp(resetRead, 0, 10, 7)),
		// A page shared with a snapshot, reset, then written: the
		// snapshot keeps the old bytes and the memory reads the new.
		"shared page": cat(resetOp(resetWrite, 2, 300, 9), resetOp(resetSnapshot, 0, 0, 0),
			resetOp(resetReset, 0, 0, 0), resetOp(resetWrite, 2, 302, 4), resetOp(resetRead, 2, 290, 23)),
		// A page privatized by a write after the snapshot, then reset.
		"privatized page": cat(resetOp(resetWrite, 1, 5, 3), resetOp(resetSnapshot, 0, 0, 0),
			resetOp(resetWrite, 1, 6, 5), resetOp(resetReset, 0, 0, 0), resetOp(resetSnapWrite, 1, 7, 11)),
		// An overlay's copy-up counts in the family's stats.
		"overlay stats": cat(resetOp(resetWrite, 2, 0, 1), resetOp(resetOverlay, 2, 1, 2), resetOp(resetReset, 0, 0, 0)),
		// A write across a page boundary, reset twice.
		"straddle": cat(resetOp(resetWrite, 0, pageSize-3, 20), resetOp(resetReset, 0, 0, 0),
			resetOp(resetReset, 0, 0, 0), resetOp(resetRead, 0, pageSize-4, 20)),
	}
	for name, stream := range cases {
		if err := runResetStream(stream); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	for seed := int64(0); seed < 25; seed++ {
		stream := make([]byte, 4*200)
		rand.New(rand.NewSource(seed)).Read(stream)
		if err := runResetStream(stream); err != nil {
			t.Fatalf("random stream %d: %v", seed, err)
		}
	}
}

// TestResetOverlayPanics: only a root memory may be reset.
func TestResetOverlayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Reset of an overlay did not panic")
		}
	}()
	NewMemory().Overlay().Reset()
}

// FuzzMemoryReset is TestMemoryResetMatchesFresh over arbitrary streams.
func FuzzMemoryReset(f *testing.F) {
	const maxFuzzOps = 1024
	f.Fuzz(func(t *testing.T, stream []byte) {
		if len(stream) > 4*maxFuzzOps {
			stream = stream[:4*maxFuzzOps]
		}
		if err := runResetStream(stream); err != nil {
			t.Fatal(err)
		}
	})
}
