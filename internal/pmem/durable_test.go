package pmem

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestUnreadDurableImageStaysEmpty: a tracker whose durable image nobody
// reads materializes no page while its queued writes fit the queue, and
// the first reader sees every one of them.
func TestUnreadDurableImageStaysEmpty(t *testing.T) {
	tr := NewTracker()
	tr.SeedDurable(PMBase+LineSize, []byte{9})
	seq := 0
	for i := 0; i < durableQueueLen-1; i++ {
		addr := PMBase + 2*LineSize + uint64(i)*8
		tr.OnStore(seq, addr, val(byte(i+1)))
		tr.OnFlush(seq+1, true, addr) // CLFLUSH commits at once
		seq += 2
	}
	if tr.DurableStores != durableQueueLen-1 {
		t.Fatalf("durable stores = %d, want %d", tr.DurableStores, durableQueueLen-1)
	}
	if n := len(tr.durable.chunks); n != 0 {
		t.Fatalf("unread tracker holds %d durable pages, want 0", n)
	}
	img := tr.DurableImage()
	if got := img.Load8(PMBase + LineSize); got != 9 {
		t.Errorf("seeded byte = %d, want 9", got)
	}
	for i := 0; i < durableQueueLen-1; i++ {
		if got := img.Load8(PMBase + 2*LineSize + uint64(i)*8); got != byte(i+1) {
			t.Fatalf("committed store %d reads %d, want %d", i, got, i+1)
		}
	}
}

// TestDeferredDurableMatchesEager drives a deferring tracker and one that
// writes its durable image eagerly through seeded streams that commit far
// more stores than the queue holds, across several pages, capturing crash
// states at random boundaries. Every capture must hold the same bytes,
// and the snapshot families must end with the same copy-on-write page
// accounting (the crashsim pages_copied figure).
func TestDeferredDurableMatchesEager(t *testing.T) {
	const pages = 3
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		lazy, eager := NewTracker(), NewTracker()
		eager.writeThrough = true
		for i := 0; i < pages; i++ {
			seed := []byte{byte(i + 1), byte(seed)}
			addr := PMBase + uint64(i)*pageSize + LineSize
			lazy.SeedDurable(addr, seed)
			eager.SeedDurable(addr, seed)
		}
		var caps [][2]*CrashState
		for seq := 0; seq < 300; seq++ {
			addr := PMBase + uint64(rng.Intn(pages))*pageSize + uint64(1+rng.Intn(8))*LineSize + uint64(rng.Intn(8))*8
			switch r := rng.Intn(10); {
			case r < 5:
				data := []byte{byte(rng.Intn(256)), byte(seq)}
				lazy.OnStore(seq, addr, data)
				eager.OnStore(seq, addr, data)
			case r < 7:
				lazy.OnFlush(seq, r == 5, addr)
				eager.OnFlush(seq, r == 5, addr)
			case r < 9:
				lazy.OnFence(seq)
				eager.OnFence(seq)
			default:
				caps = append(caps, [2]*CrashState{lazy.CaptureCrashState(), eager.CaptureCrashState()})
			}
		}
		if len(caps) == 0 || lazy.DurableStores <= 2*durableQueueLen {
			t.Fatalf("seed %d: %d captures, %d commits; the stream must capture and overflow the queue", seed, len(caps), lazy.DurableStores)
		}
		for i, c := range caps {
			if d := DiffPM(c[0].Durable, c[1].Durable); d != 0 {
				t.Fatalf("seed %d capture %d: durable images differ in %d bytes", seed, i, d)
			}
			if g, w := linesView(c[0].Lines), linesView(c[1].Lines); !reflect.DeepEqual(g, w) {
				t.Fatalf("seed %d capture %d: pending lines\n got %v\nwant %v", seed, i, g, w)
			}
		}
		// Compare the accounting before the final reads, so copies made
		// by writes after the last capture count too.
		ls, es := lazy.durable.Stats(), eager.durable.Stats()
		if ls.PagesCopied.Load() != es.PagesCopied.Load() || ls.PagesShared.Load() != es.PagesShared.Load() ||
			ls.Snapshots.Load() != es.Snapshots.Load() {
			t.Fatalf("seed %d: cow stats copied/shared/snapshots %d/%d/%d, eager %d/%d/%d", seed,
				ls.PagesCopied.Load(), ls.PagesShared.Load(), ls.Snapshots.Load(),
				es.PagesCopied.Load(), es.PagesShared.Load(), es.Snapshots.Load())
		}
		if d := DiffPM(lazy.CrashImage(func(*TrackedStore) bool { return false }),
			eager.CrashImage(func(*TrackedStore) bool { return false })); d != 0 {
			t.Fatalf("seed %d: final durable images differ in %d bytes", seed, d)
		}
	}
}
