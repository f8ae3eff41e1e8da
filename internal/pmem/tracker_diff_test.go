package pmem

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
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

// The event kinds of a differential stream.
const (
	opStore = iota
	opNTStore
	opCLWB
	opCLFLUSH
	opFence
	opCheckpoint
	opCapture
	opReset
	numOps
)

// diffOp is one event of a differential stream: a store carries addr and
// data, a flush only addr.
type diffOp struct {
	kind, tid int
	addr      uint64
	data      []byte
}

func (op diffOp) String() string {
	name := [numOps]string{"store", "nt-store", "clwb", "clflush", "fence", "checkpoint", "capture", "reset"}[op.kind]
	return fmt.Sprintf("%s %#x/%d t%d", name, op.addr, len(op.data), op.tid)
}

// storeView is a deep copy of what a crash state reads of one store.
type storeView struct {
	seq, tid int
	addr     uint64
	data     string
}

// captureView deep-copies what crash-image construction reads of a
// capture: every pending line's stores and the durable bytes of the diff
// line set.
type captureView struct {
	lines   [][]storeView
	durable [(diffLines + 2) * LineSize]byte
}

func viewCapture(cs *CrashState) captureView {
	var v captureView
	for _, pl := range cs.Lines {
		v.lines = append(v.lines, viewStores(pl.Line, pl.Stores))
	}
	cs.Durable.Read(PMBase, v.durable[:])
	return v
}

func viewStores(line uint64, sts []*TrackedStore) []storeView {
	row := []storeView{{addr: line}}
	for _, st := range sts {
		row = append(row, storeView{st.Seq, st.Tid, st.Addr, string(st.Data())})
	}
	return row
}

// differ drives a Tracker and the reference tracker with one event stream
// and requires identical observable behaviour after every event. It also
// keeps a deep copy of every capture and of every publish's referent, so
// check can require that nothing the tracker handed out changed since,
// however the tracker went on recycling records.
type differ struct {
	got  *Tracker
	want *refTracker
	seq  int
	seen struct{ flushes, publishes int }
	// captures and their copies taken when captured, over the whole
	// stream (resets included).
	captures []*CrashState
	views    []captureView
	// pubs are the copies of got.Publishes taken when they were added.
	pubs []CrossThreadPublish
	// published counts the publishes the reference found, over resets.
	published int
}

func newDiffer(got *Tracker) *differ { return &differ{got: got, want: newRefTracker()} }

// step feeds op to both trackers and returns the first divergence.
func (d *differ) step(op diffOp) error {
	got, want, seq := d.got, d.want, d.seq
	d.seq++
	switch op.kind {
	case opStore:
		got.Store(seq, op.tid, op.addr, op.data, false, true)
		want.OnStoreT(seq, op.tid, op.addr, op.data)
	case opNTStore:
		got.Store(seq, op.tid, op.addr, op.data, true, true)
		want.OnNTStoreT(seq, op.tid, op.addr, op.data)
	case opCLWB, opCLFLUSH:
		ordered := op.kind == opCLFLUSH
		if g, w := got.Flush(seq, op.tid, ordered, op.addr), want.OnFlushT(seq, op.tid, ordered, op.addr); g != w {
			return fmt.Errorf("moved %d, want %d", g, w)
		}
	case opFence:
		if g, w := got.Fence(seq, op.tid), want.OnFenceT(seq, op.tid); g != w {
			return fmt.Errorf("drained lines %d, want %d", g, w)
		}
	case opCheckpoint:
		if g, w := violationView(onCheckpoint(got, seq)), violationView(want.OnCheckpoint(seq)); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("violations\n got %v\nwant %v", g, w)
		}
	case opCapture:
		cs := got.CaptureCrashState()
		v := viewCapture(cs)
		var w captureView
		for _, pl := range want.PendingLines() {
			w.lines = append(w.lines, viewStores(pl.Line, pl.Stores))
		}
		want.durable.Read(PMBase, w.durable[:])
		if !reflect.DeepEqual(v, w) {
			return fmt.Errorf("capture\n got %v\nwant %v", v, w)
		}
		d.captures = append(d.captures, cs)
		d.views = append(d.views, v)
	case opReset:
		// Reset clears Publishes: check the run's before they go.
		if err := d.checkPublishes(); err != nil {
			return err
		}
		got.Reset()
		d.want = newRefTracker()
		d.seq = 0
		d.seen.flushes, d.seen.publishes = 0, 0
		return nil
	}
	want = d.want
	if got.NumPending() != want.NumPending() {
		return fmt.Errorf("pending %d, want %d", got.NumPending(), want.NumPending())
	}
	// Diagnostics and publishes are append-only: compare what this event
	// added.
	if !slices.Equal(got.RedundantFlushes[d.seen.flushes:], want.RedundantFlushes[d.seen.flushes:]) ||
		got.RedundantFences != want.RedundantFences {
		return fmt.Errorf("redundant flushes/fences %v/%d, want %v/%d",
			got.RedundantFlushes, got.RedundantFences, want.RedundantFlushes, want.RedundantFences)
	}
	if got.DurableStores != want.DurableStores || got.TotalStores != want.TotalStores {
		return fmt.Errorf("durable/total stores %d/%d, want %d/%d",
			got.DurableStores, got.TotalStores, want.DurableStores, want.TotalStores)
	}
	if g, w := publishView(got.Publishes[d.seen.publishes:]), publishView(want.Publishes[d.seen.publishes:]); !slices.Equal(g, w) {
		return fmt.Errorf("new publishes\n got %v\nwant %v", g, w)
	}
	d.pubs = append(d.pubs, got.Publishes[d.seen.publishes:]...)
	d.published += len(want.Publishes) - d.seen.publishes
	d.seen.flushes, d.seen.publishes = len(want.RedundantFlushes), len(want.Publishes)
	if g, w := linesView(got.PendingLines()), linesView(want.PendingLines()); !reflect.DeepEqual(g, w) {
		return fmt.Errorf("pending lines\n got %v\nwant %v", g, w)
	}
	var gotImg, wantImg [(diffLines + 2) * LineSize]byte
	got.syncDurable()
	got.durable.Read(PMBase, gotImg[:])
	want.durable.Read(PMBase, wantImg[:])
	if gotImg != wantImg {
		return fmt.Errorf("durable images differ")
	}
	return nil
}

// check returns an error if a capture or a publish of the current run
// changed since it was taken. (A reset checks the publishes of the run it
// ends.)
func (d *differ) check() error {
	for i, cs := range d.captures {
		if v := viewCapture(cs); !reflect.DeepEqual(v, d.views[i]) {
			return fmt.Errorf("capture %d changed\n now %v\nwas %v", i, v.lines, d.views[i].lines)
		}
	}
	return d.checkPublishes()
}

// checkPublishes returns an error if a publish of the current run changed
// since it was made.
func (d *differ) checkPublishes() error {
	run := d.pubs[len(d.pubs)-len(d.got.Publishes):]
	for i, p := range d.got.Publishes {
		if p != run[i] {
			return fmt.Errorf("publish %d changed: now %+v, was %+v", i, p, run[i])
		}
	}
	return nil
}

// randOp draws the next event of a seeded stream: fences, flushes,
// checkpoints and captures with the given percentages, a store otherwise.
func randOp(rng *rand.Rand, threads, pFence, pFlush, pCkpt, pCapture int) diffOp {
	op := diffOp{tid: rng.Intn(threads)}
	switch r := rng.Intn(100); {
	case r < pFence:
		op.kind = opFence
	case r < pFence+pFlush:
		op.addr = PMBase + uint64(1+rng.Intn(diffLines))*LineSize + uint64(rng.Intn(LineSize))
		op.kind = opCLWB
		if rng.Intn(3) == 0 {
			op.kind = opCLFLUSH
		}
	case r < pFence+pFlush+pCkpt:
		op.kind = opCheckpoint
	case r < pFence+pFlush+pCkpt+pCapture:
		op.kind = opCapture
	default:
		op.addr, op.data = randStore(rng)
		if rng.Intn(6) == 0 {
			op.kind = opNTStore
		}
	}
	return op
}

// TestTrackerMatchesReference drives the Tracker and the reference
// map-plus-sort tracker with seeded random multi-thread event streams and
// requires identical observable behaviour after every event. Random
// captures are deep-copied when taken and compared again at the end of
// the stream, so a store record recycled while a capture holds it fails.
func TestTrackerMatchesReference(t *testing.T) {
	publishes, captured := 0, 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		threads := 1 + rng.Intn(4)
		// Per-seed event mix: some streams are flush-free, some fence
		// rarely (stale fence-queue entries pile up), some overwrite
		// heavily (tombstones pile up in the log).
		pFlush := rng.Intn(30)
		pFence := rng.Intn(15)
		pCkpt := 1 + rng.Intn(8)
		pCapture := rng.Intn(3)
		d := newDiffer(NewTracker())
		for range 400 {
			op := randOp(rng, threads, pFence, pFlush, pCkpt, pCapture)
			if err := d.step(op); err != nil {
				t.Fatalf("seed %d seq %d after %v: %v", seed, d.seq-1, op, err)
			}
		}
		if err := d.check(); err != nil {
			t.Fatalf("seed %d at the end of the stream: %v", seed, err)
		}
		publishes += d.published
		captured += len(d.captures)
	}
	if publishes == 0 {
		t.Error("no stream exercised cross-thread publish detection")
	}
	if captured == 0 {
		t.Error("no stream captured a crash state")
	}
}

// FuzzTrackerReference decodes bytes into an event stream over the diff
// line set and runs it through differ: the Tracker must match the
// reference tracker after every event, and no capture or publish may
// change while the tracker keeps running, resets and recycles records.
// Each event takes three bytes: the kind and thread, the line and
// offset, and the width and value of a store. Streams are cut at
// maxFuzzEvents, which keeps an input's run short.
func FuzzTrackerReference(f *testing.F) {
	const maxFuzzEvents = 1024
	f.Fuzz(func(t *testing.T, stream []byte) {
		d := newDiffer(NewTracker())
		for i := 0; i+3 <= len(stream) && i < 3*maxFuzzEvents; i += 3 {
			op := decodeOp(stream[i], stream[i+1], stream[i+2])
			if err := d.step(op); err != nil {
				t.Fatalf("event %d (%v): %v", i/3, op, err)
			}
		}
		if err := d.check(); err != nil {
			t.Fatalf("at the end of the stream: %v", err)
		}
	})
}

// decodeOp turns three fuzz bytes into one event: b0 picks the kind and
// the thread (of 4), b1 the line and the offset in it, b2 the store width
// and value; an 8-byte store with b2&4 set holds a PM address into the
// line set, so its commit runs publish detection.
func decodeOp(b0, b1, b2 byte) diffOp {
	op := diffOp{kind: int(b0) % numOps, tid: int(b0/numOps) % 4}
	line := PMBase + uint64(1+int(b1)%diffLines)*LineSize
	switch op.kind {
	case opCLWB, opCLFLUSH:
		op.addr = line + uint64(b1/diffLines)%LineSize
	case opStore, opNTStore:
		size := 1 << (b2 & 3)
		op.addr = line + uint64(int(b1/diffLines)%(LineSize/size)*size)
		v := uint64(b2) * 0x0101010101010101
		if size == 8 && b2&4 != 0 {
			v = PMBase + uint64(1+int(b2>>3)%diffLines)*LineSize
		}
		op.data = binary.LittleEndian.AppendUint64(nil, v)[:size]
	}
	return op
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

// TestCheckpointAllocFree: walking a checkpoint's violations over ~1k
// pending stores, as the detector does, allocates nothing.
func TestCheckpointAllocFree(t *testing.T) {
	tr := NewTracker()
	seq := 0
	for i := 0; i < 1024; i++ {
		onStore(tr, seq, PMBase+LineSize+uint64(i)*8, val(1, 2, 3, 4, 5, 6, 7, 8))
		seq++
		if i%3 == 0 {
			onFlush(tr, seq, false, PMBase+LineSize+uint64(i)*8)
			seq++
		}
	}
	if n := len(onCheckpoint(tr, seq)); n != 1024 {
		t.Fatalf("violations = %d, want 1024", n)
	}
	walk := func() {
		for range tr.Violations(seq) {
		}
	}
	if a := testing.AllocsPerRun(50, walk); a != 0 {
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
			onStore(tr, seq, addr, val(byte(seq), 2, 3, 4, 5, 6, 7, 8))
			seq++
		}
		for i := k - 1; i >= 0; i-- { // reverse: commits need the sort
			onFlush(tr, seq, false, PMBase+LineSize+uint64(i)*LineSize/2)
			seq++
		}
		return func() {
			if n := tr.Fence(seq, 0); n != k/2 {
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

// TestTrackedStoreSize pins the store record at 56 bytes: the payload
// sits inline and the narrow fields share one word, so a long traced run
// pays 56 bytes per pending store and no payload allocation.
func TestTrackedStoreSize(t *testing.T) {
	if n := unsafe.Sizeof(TrackedStore{}); n > 56 {
		t.Errorf("TrackedStore is %d bytes, want <= 56", n)
	}
}

// TestTrackerResetMatchesFresh: a tracker reset after a run behaves as a
// new one on the next. What it handed out for good stays unchanged while
// it keeps running and after its resets: every capture's stores and
// durable bytes, and every publish's referent.
func TestTrackerResetMatchesFresh(t *testing.T) {
	reused := NewTracker()
	var captures []*CrashState
	var views []captureView
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fresh := NewTracker()
		var pubs []CrossThreadPublish
		for seq := 0; seq < 200; seq++ {
			tid := rng.Intn(3)
			switch r := rng.Intn(20); {
			case r < 2:
				if g, w := reused.Fence(seq, tid), fresh.Fence(seq, tid); g != w {
					t.Fatalf("seed %d seq %d: fence drained %d, want %d", seed, seq, g, w)
				}
			case r < 6:
				addr := PMBase + uint64(1+rng.Intn(diffLines))*LineSize
				if g, w := reused.Flush(seq, tid, r < 4, addr), fresh.Flush(seq, tid, r < 4, addr); g != w {
					t.Fatalf("seed %d seq %d: flush moved %d, want %d", seed, seq, g, w)
				}
			case r < 8:
				if g, w := violationView(onCheckpoint(reused, seq)), violationView(onCheckpoint(fresh, seq)); !reflect.DeepEqual(g, w) {
					t.Fatalf("seed %d seq %d: violations %v, want %v", seed, seq, g, w)
				}
			case r < 9:
				cs := reused.CaptureCrashState()
				captures = append(captures, cs)
				views = append(views, viewCapture(cs))
			default:
				addr, data := randStore(rng)
				reused.Store(seq, tid, addr, data, false, true)
				fresh.Store(seq, tid, addr, data, false, true)
			}
			pubs = append(pubs, reused.Publishes[len(pubs):]...)
		}
		if g, w := linesView(reused.PendingLines()), linesView(fresh.PendingLines()); !reflect.DeepEqual(g, w) {
			t.Fatalf("seed %d: pending lines %v, want %v", seed, g, w)
		}
		if g, w := publishView(reused.Publishes), publishView(fresh.Publishes); !slices.Equal(g, w) {
			t.Fatalf("seed %d: publishes %v, want %v", seed, g, w)
		}
		if !slices.Equal(reused.Publishes, pubs) {
			t.Fatalf("seed %d: publishes changed after they were made:\n now %+v\nwas %+v", seed, reused.Publishes, pubs)
		}
		if reused.RedundantFences != fresh.RedundantFences || !slices.Equal(reused.RedundantFlushes, fresh.RedundantFlushes) ||
			reused.DurableStores != fresh.DurableStores || reused.TotalStores != fresh.TotalStores {
			t.Fatalf("seed %d: counters differ from a fresh tracker", seed)
		}
		var got, want [(diffLines + 2) * LineSize]byte
		reused.snapshotDurable().Read(PMBase, got[:])
		fresh.snapshotDurable().Read(PMBase, want[:])
		if got != want {
			t.Fatalf("seed %d: durable images differ", seed)
		}
		reused.Reset()
		for i, cs := range captures {
			if v := viewCapture(cs); !reflect.DeepEqual(v, views[i]) {
				t.Fatalf("seed %d: capture %d changed after the tracker ran on and reset\n now %v\nwas %v", seed, i, v.lines, views[i].lines)
			}
		}
	}
	if len(captures) == 0 {
		t.Error("no crash state captured")
	}
}

// TestPersistLoopAllocFree: in steady state a store → flush → fence loop
// allocates nothing. Each fence retires the records it commits and the
// next round's stores take them back, so no round takes an arena slot.
// The loop keeps to 8 lines, which the runtime's line map holds in one
// group: over more lines, emptying and refilling the map makes it rehash
// its tombstones now and then, which is the map's cost, not the records'.
// The tracker first captures a crash state late in a run and is reset,
// so the loop also pins that Reset restarts the pin with the sequence
// numbers.
func TestPersistLoopAllocFree(t *testing.T) {
	const k, lines, rounds = 32, 8, 50
	tr := NewTracker()
	onStore(tr, 1<<20, PMBase+LineSize, val(1))
	tr.CaptureCrashState()
	tr.Reset()
	seq := 0
	addr := func(i int) uint64 { return PMBase + LineSize + uint64(i)*LineSize*lines/k }
	round := func() {
		for i := 0; i < k; i++ {
			onStore(tr, seq, addr(i), val(byte(seq), 2, 3, 4, 5, 6, 7, 8))
			seq++
		}
		for i := 0; i < k; i += k / lines {
			onFlush(tr, seq, false, addr(i))
			seq++
		}
		if n := onFence(tr, seq); n != lines {
			t.Fatalf("fence drained %d lines, want %d", n, lines)
		}
		seq++
	}
	for i := 0; i < 3; i++ { // warm up the records and scratch buffers
		round()
	}
	if total := trackerAllocs(func() {
		for i := 0; i < rounds; i++ {
			round()
		}
	}); total != 0 {
		t.Errorf("%d rounds of %d stores, %d flushes and a fence allocated %d times, want 0", rounds, k, lines, total)
	}
}
