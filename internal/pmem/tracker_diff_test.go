package pmem

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// diffLines is the small line set the differential streams hit, so exact
// overwrites, shared lines and cross-thread flushes are common.
const diffLines = 6

// pubView, violationView and lineView flatten tracker output to values
// comparable across trackers (the TrackedStore records differ by
// identity).
type pubView struct {
	addr, val, refSeq uint64
	seq, tid          int
}

func publishView(ps []CrossThreadPublish) []pubView {
	out := make([]pubView, len(ps))
	for i, p := range ps {
		out[i] = pubView{p.PubAddr, p.Val, uint64(p.Referent.Seq), p.PubSeq, p.PubTid}
	}
	return out
}

func violationView(vs []Violation) [][3]int {
	out := make([][3]int, len(vs))
	for i, v := range vs {
		out[i] = [3]int{int(v.Class), v.Store.Seq, v.Store.FlushSeq}
	}
	return out
}

func linesView(pls []PendingLine) [][]int {
	out := make([][]int, len(pls))
	for i, pl := range pls {
		row := []int{int(pl.Line - PMBase)}
		for _, st := range pl.Stores {
			row = append(row, st.Seq)
		}
		out[i] = row
	}
	return out
}

// randStore picks a naturally aligned store inside the diff line set.
// About one in four is an 8-byte store of a PM address pointing into the
// set, so commits run publish detection.
func randStore(rng *rand.Rand) (uint64, []byte) {
	line := PMBase + uint64(1+rng.Intn(diffLines))*LineSize
	if rng.Intn(4) == 0 {
		off := uint64(rng.Intn(LineSize/8)) * 8
		target := PMBase + uint64(1+rng.Intn(diffLines))*LineSize + uint64(rng.Intn(LineSize))
		data := make([]byte, 8)
		for i := range data {
			data[i] = byte(target >> (8 * i))
		}
		return line + off, data
	}
	size := []int{1, 2, 4, 8}[rng.Intn(4)]
	off := uint64(rng.Intn(LineSize/size) * size)
	data := make([]byte, size)
	rng.Read(data)
	return line + off, data
}

// TestTrackerMatchesReference drives the Tracker and the reference
// map-plus-sort tracker with seeded random multi-thread event streams and
// requires identical observable behaviour after every event.
func TestTrackerMatchesReference(t *testing.T) {
	publishes := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 1 + rng.Intn(4)
		// Per-seed event mix: some streams are flush-free, some fence
		// rarely (stale fence-queue entries pile up), some overwrite
		// heavily (tombstones pile up in the log).
		pFlush := rng.Intn(30)
		pFence := rng.Intn(15)
		pCkpt := 1 + rng.Intn(8)
		got, want := NewTracker(), newRefTracker()
		var gotImg, wantImg [(diffLines + 2) * LineSize]byte
		var seen struct{ flushes, publishes int }
		for seq := 0; seq < 400; seq++ {
			tid := rng.Intn(threads)
			var op func() string // described only on failure
			r := rng.Intn(100)
			switch {
			case r < pFence:
				op = func() string { return fmt.Sprintf("fence t%d", tid) }
				if g, w := got.OnFenceT(seq, tid), want.OnFenceT(seq, tid); g != w {
					t.Fatalf("seed %d seq %d %s: drained lines %d, want %d", seed, seq, op(), g, w)
				}
			case r < pFence+pFlush:
				line := PMBase + uint64(1+rng.Intn(diffLines))*LineSize + uint64(rng.Intn(LineSize))
				ordered := rng.Intn(3) == 0 // CLFLUSH; else CLWB/CLFLUSHOPT
				op = func() string { return fmt.Sprintf("flush(ordered=%v) %#x t%d", ordered, line, tid) }
				if g, w := got.OnFlushT(seq, tid, ordered, line), want.OnFlushT(seq, tid, ordered, line); g != w {
					t.Fatalf("seed %d seq %d %s: moved %d, want %d", seed, seq, op(), g, w)
				}
			case r < pFence+pFlush+pCkpt:
				op = func() string { return "checkpoint" }
				if g, w := violationView(got.OnCheckpoint(seq)), violationView(want.OnCheckpoint(seq)); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d seq %d: violations\n got %v\nwant %v", seed, seq, g, w)
				}
			default:
				addr, data := randStore(rng)
				nt := rng.Intn(6) == 0
				op = func() string { return fmt.Sprintf("store(nt=%v) %#x/%d t%d", nt, addr, len(data), tid) }
				if nt {
					got.OnNTStoreT(seq, tid, addr, data)
					want.OnNTStoreT(seq, tid, addr, data)
				} else {
					got.OnStoreT(seq, tid, addr, data)
					want.OnStoreT(seq, tid, addr, data)
				}
			}
			where := func() string { return fmt.Sprintf("seed %d seq %d after %s", seed, seq, op()) }
			if got.NumPending() != want.NumPending() {
				t.Fatalf("%s: pending %d, want %d", where(), got.NumPending(), want.NumPending())
			}
			// Diagnostics and publishes are append-only: compare what
			// this event added.
			if !slices.Equal(got.RedundantFlushes[seen.flushes:], want.RedundantFlushes[seen.flushes:]) ||
				got.RedundantFences != want.RedundantFences {
				t.Fatalf("%s: redundant flushes/fences %v/%d, want %v/%d", where(),
					got.RedundantFlushes, got.RedundantFences, want.RedundantFlushes, want.RedundantFences)
			}
			if got.DurableStores != want.DurableStores || got.TotalStores != want.TotalStores {
				t.Fatalf("%s: durable/total stores %d/%d, want %d/%d", where(),
					got.DurableStores, got.TotalStores, want.DurableStores, want.TotalStores)
			}
			if g, w := publishView(got.Publishes[seen.publishes:]), publishView(want.Publishes[seen.publishes:]); !slices.Equal(g, w) {
				t.Fatalf("%s: new publishes\n got %v\nwant %v", where(), g, w)
			}
			seen.flushes, seen.publishes = len(want.RedundantFlushes), len(want.Publishes)
			if g, w := linesView(got.PendingLines()), linesView(want.PendingLines()); !reflect.DeepEqual(g, w) {
				t.Fatalf("%s: pending lines\n got %v\nwant %v", where(), g, w)
			}
			got.syncDurable()
			got.durable.Read(PMBase, gotImg[:])
			want.durable.Read(PMBase, wantImg[:])
			if gotImg != wantImg {
				t.Fatalf("%s: durable images differ", where())
			}
		}
		publishes += len(want.Publishes)
	}
	if publishes == 0 {
		t.Error("no stream exercised cross-thread publish detection")
	}
}

// trackerAllocs returns the heap allocations tracker code makes while f
// runs: objects in a rate-1 memory profile whose allocating stack passes
// through non-test code of internal/pmem or internal/arena. A
// process-wide counter would also count the runtime's own allocations,
// such as an OS thread started when a stop-the-world ends, which no
// tracker change can remove.
func trackerAllocs(f func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	runtime.GC() // publish everything allocated so far
	before := profiledTrackerAllocs()
	f()
	runtime.GC()
	return profiledTrackerAllocs() - before
}

func profiledTrackerAllocs() int64 {
	var recs []runtime.MemProfileRecord
	for n := 256; ; n *= 2 {
		recs = make([]runtime.MemProfileRecord, n)
		if got, ok := runtime.MemProfile(recs, true); ok {
			recs = recs[:got]
			break
		}
	}
	var total int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		for {
			fr, more := frames.Next()
			if isTrackerCode(fr) {
				total += r.AllocObjects
				break
			}
			if !more {
				break
			}
		}
	}
	return total
}

func isTrackerCode(fr runtime.Frame) bool {
	return (strings.HasPrefix(fr.Function, "hippocrates/internal/pmem.") ||
		strings.HasPrefix(fr.Function, "hippocrates/internal/arena.")) &&
		!strings.HasSuffix(fr.File, "_test.go")
}

// TestCheckpointAllocFree: a checkpoint over ~1k pending stores reuses
// the tracker's violation buffer.
func TestCheckpointAllocFree(t *testing.T) {
	tr := NewTracker()
	seq := 0
	for i := 0; i < 1024; i++ {
		tr.OnStore(seq, PMBase+LineSize+uint64(i)*8, val(1, 2, 3, 4, 5, 6, 7, 8))
		seq++
		if i%3 == 0 {
			tr.OnFlush(seq, false, PMBase+LineSize+uint64(i)*8)
			seq++
		}
	}
	if n := len(tr.OnCheckpoint(seq)); n != 1024 {
		t.Fatalf("violations = %d, want 1024", n)
	}
	if a := testing.AllocsPerRun(50, func() { tr.OnCheckpoint(seq) }); a != 0 {
		t.Errorf("checkpoint allocates %v times per call, want 0", a)
	}
}

// TestFenceAllocFree: in steady state, a fence committing k stores
// allocates nothing (its scratch, fence queue and line records are
// reused). Only the fences are measured; the stores and flushes that
// feed them allocate their arena records.
func TestFenceAllocFree(t *testing.T) {
	const k, rounds = 32, 50
	tr := NewTracker()
	seq := 0
	round := func() func() {
		for i := 0; i < k; i++ {
			addr := PMBase + LineSize + uint64(i)*LineSize/2
			tr.OnStore(seq, addr, val(byte(seq), 2, 3, 4, 5, 6, 7, 8))
			seq++
		}
		for i := k - 1; i >= 0; i-- { // reverse: commits need the sort
			tr.OnFlush(seq, false, PMBase+LineSize+uint64(i)*LineSize/2)
			seq++
		}
		return func() {
			if n := tr.OnFenceT(seq, 0); n != k/2 {
				t.Fatalf("fence drained %d lines, want %d", n, k/2)
			}
			seq++
		}
	}
	for i := 0; i < 3; i++ { // warm up the scratch buffers
		round()()
	}
	var total int64
	for i := 0; i < rounds; i++ {
		fence := round()
		total += trackerAllocs(fence)
	}
	if total != 0 {
		t.Errorf("%d fences committing %d stores allocated %d times, want 0", rounds, k, total)
	}
}
