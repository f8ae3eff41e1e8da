package pmem

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"iter"
	"slices"

	"hippocrates/internal/arena"
)

// StoreState is the durability state of a tracked PM store, following the
// paper's §4.2 definitions: a store is volatile (dirty) until a flush of
// its cache line is issued, and the flush itself only creates a durability
// ordering once a subsequent fence executes.
type StoreState uint8

// The durability states.
const (
	// StoreDirty: the update sits in the volatile CPU cache.
	StoreDirty StoreState = iota
	// StoreFlushed: a weakly-ordered flush (CLWB/CLFLUSHOPT) or
	// non-temporal store has been issued but not yet fenced.
	StoreFlushed
	// StoreDurable: flushed and fenced (or CLFLUSHed); survives a crash.
	StoreDurable
)

func (s StoreState) String() string {
	switch s {
	case StoreDirty:
		return "dirty"
	case StoreFlushed:
		return "flushed"
	case StoreDurable:
		return "durable"
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// TrackedStore is one store to persistent memory that has not yet become
// durable. Stores never span cache lines in this model and carry at most
// 8 bytes (all IR scalars are naturally aligned and at most 8 bytes wide;
// the trace parsers reject anything else), which the tracker checks. The
// payload sits inline in the record, so a store costs one 56-byte arena
// slot and no separate payload allocation. The tracker recycles a record
// once no reader can reach it any more (see Tracker.Store).
type TrackedStore struct {
	Addr uint64
	// Seq is the global event sequence number of the store.
	Seq int
	// FlushSeq is the sequence number of the flush that moved the store
	// to StoreFlushed, or -1.
	FlushSeq int
	// Tid is the simulated thread that issued the store (0 = main).
	Tid int
	// FlushTid is the thread that issued the flush that moved the store
	// to StoreFlushed (flushes act on whole cache lines, so another
	// thread's flush can write back this thread's store). SFENCE only
	// drains the issuing core's flushes, so a fence commits a flushed
	// store only when FlushTid matches the fencing thread.
	FlushTid int
	// logIdx is the store's slot in Tracker.log while it is pending, and
	// -1 once it has left pending (committed or exactly overwritten).
	logIdx int32
	// data[:size] is the payload; it never changes after the store.
	data [8]byte
	size uint8
	// State is the current durability state.
	State StoreState
	// NT marks a non-temporal store (born flushed).
	NT bool
	// pub marks an 8-byte store of a PM address: publish detection
	// follows it once the store is durable.
	pub bool
}

// Data returns the store's payload. The slice aliases the record and must
// not be modified.
func (s *TrackedStore) Data() []byte { return s.data[:s.size] }

// Size returns the store width in bytes.
func (s *TrackedStore) Size() int { return int(s.size) }

// Line returns the base address of the cache line holding the store.
func (s *TrackedStore) Line() uint64 { return LineOf(s.Addr) }

// BugClass classifies a durability violation, matching the paper's
// taxonomy (§2.1).
type BugClass int

// The durability bug classes.
const (
	// MissingFlush: the store was never flushed, but an existing fence
	// follows it, so inserting only a flush (before that fence) fixes it.
	MissingFlush BugClass = iota
	// MissingFence: the store was flushed with a weakly-ordered flush but
	// no fence followed the flush.
	MissingFence
	// MissingFlushFence: neither a flush nor a subsequent fence exists.
	MissingFlushFence
)

func (c BugClass) String() string {
	switch c {
	case MissingFlush:
		return "missing-flush"
	case MissingFence:
		return "missing-fence"
	case MissingFlushFence:
		return "missing-flush&fence"
	}
	return fmt.Sprintf("bugclass(%d)", int(c))
}

// Violation is a durability bug observed at a durability point: the store
// was not durable when the program required it to be.
type Violation struct {
	Store         *TrackedStore
	Class         BugClass
	CheckpointSeq int
}

// RedundantFlush is a performance diagnostic: a flush of a line with no
// dirty stores (§7 — reported, never auto-fixed).
type RedundantFlush struct {
	Addr uint64
	Seq  int
}

// CrossThreadPublish records an unordered cross-thread pointer publish:
// a store holding a PM address became durable while the cache line it
// points at still carried pending stores from a different thread. A
// crash after the publish can leave the pointer durable but the
// referent data lost — the publishing thread never ordered the other
// thread's writes (no flush of the referent line + fence on its own
// core) before making the pointer reachable.
type CrossThreadPublish struct {
	// PubAddr/PubSeq/PubTid identify the publishing store (now durable).
	PubAddr uint64
	PubSeq  int
	PubTid  int
	// Val is the published PM address.
	Val uint64
	// Referent is a copy of the cross-thread store on the published line
	// that was still pending at publish time (the record itself may be
	// recycled once it commits).
	Referent TrackedStore
}

// Tracker implements the pmemcheck durability state machine over a stream
// of PM events. It maintains the durable shadow image used to generate
// crash images, materializing it only when a reader asks for it (see
// syncDurable).
//
// Callers pass strictly increasing sequence numbers; every ordered query
// (Violations, CrashImage, PendingLines, fence commit order) relies on
// it instead of sorting. Each event costs O(the stores it touches): a store
// or flush O(stores pending on its line), a fence O(stores it commits,
// plus the pending stores on their lines), a checkpoint O(pending).
type Tracker struct {
	// lines maps a cache-line base to its non-durable stores, in sequence
	// order. Lines leave the map when they empty; their records go to
	// freeLines so the store slices are reused.
	lines     map[uint64]*pendingList
	freeLines []*pendingList
	// log holds every non-durable store in sequence order. A store leaves
	// it by tombstone (nil entry, logIdx -1); compactLog squeezes the
	// tombstones out once they outnumber the live entries, so walking the
	// log costs O(pending).
	log      []*TrackedStore
	nPending int
	// flushed is the per-thread fence queue (index = tid): the stores the
	// thread's weakly-ordered flushes and NT stores moved to StoreFlushed,
	// in flush order. A fence drains only its own thread's queue. Entries
	// whose store left pending since (CLFLUSH, exact overwrite) are stale
	// and skipped.
	flushed [][]*TrackedStore
	// fenceEpoch stamps the lines a fence drains, so each counts once.
	fenceEpoch int
	// durable is the shadow image holding only durable bytes. Writes to
	// it are deferred: commit and SeedDurable queue (addr, data) in
	// durableQ, which is applied in order when it fills and by syncDurable
	// at the start of every durable reader. A run whose image nobody reads
	// and that commits fewer stores than the queue holds (every explored
	// interleaving of a short program) never materializes a durable page.
	durable  *Memory
	durableQ []durableWrite
	// writeThrough is set once the durable image has been snapshotted;
	// later writes skip the queue. Before the first snapshot no page is
	// shared, so queued writes copy no page; after it, writing through
	// makes every snapshot family pay exactly the copy-on-write page
	// copies eager writes would.
	writeThrough bool

	// lastFence records the sequence of the latest fence per issuing
	// thread (index = tid). Checkpoint classification consults the
	// store's own thread: a fence by another thread never drains this
	// thread's flushes, so it cannot turn missing-flush&fence into
	// missing-flush — a flush-only fix would park the line forever.
	lastFence []int

	// stores backs TrackedStore records (payload inline) in chunks, so
	// the per-store cost on the interpreter hot path is one bump
	// allocation instead of a heap allocation. Chunks grow from 16 to 256
	// records, so the many short runs of crash validation and
	// exploration do not each pay for a full chunk. The arena is never
	// rewound: a record returns to use only through free.
	stores arena.Chunks[TrackedStore]
	// free holds retired records for Store to reuse before it takes an
	// arena slot, at most freeMax of them. A record is retired once no
	// reader can reach it: it has left pending, it sits in no fence queue
	// (an entry there is skipped only while its record stays unpending),
	// and its Seq is above pin, so no crash state holds it.
	free []*TrackedStore
	// pin is the newest store seq at the latest CaptureCrashState (-1
	// before the first): a capture holds records at or below it, which
	// are never recycled. lastStore is the newest store seq so far.
	pin, lastStore int
	// seeds holds the queued durable writes longer than 8 bytes (see
	// durableWrite).
	seeds [][]byte
	// commitScratch is reused across fences, so a fence does not
	// allocate in steady state.
	commitScratch []*TrackedStore

	// Diagnostics and statistics.
	RedundantFlushes []RedundantFlush
	RedundantFences  int
	DurableStores    int
	TotalStores      int
	// Publishes collects cross-thread unordered pointer publishes (only
	// possible in multi-threaded runs; see CrossThreadPublish).
	Publishes []CrossThreadPublish
}

// durableWrite is one queued write to the durable image. A payload of at
// most 8 bytes (every store's) is carried by value, so the store record
// may be recycled before the write is applied; a longer seed is
// Tracker.seeds[seed], which the caller never modifies.
type durableWrite struct {
	addr uint64
	data [8]byte
	// size is the width of data; 0 marks a seed.
	size uint8
	seed int32
}

// freeMax bounds the retired records a tracker keeps for reuse: one arena
// chunk's worth. A record retired past it is left to the collector with
// its chunk.
const freeMax = 256

// durableQueueLen bounds the deferred durable-image writes a tracker
// holds before applying them.
const durableQueueLen = 16

// pendingList is one cache line's non-durable stores, sequence-ordered.
type pendingList struct {
	stores []*TrackedStore
	// epoch is the fenceEpoch of the last fence that drained the line.
	epoch int
}

// NewTracker returns an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		lines:     make(map[uint64]*pendingList),
		durable:   NewMemory(),
		durableQ:  make([]durableWrite, 0, durableQueueLen),
		stores:    arena.New[TrackedStore](16, freeMax),
		pin:       -1,
		lastStore: -1,
	}
}

// Reset empties the tracker for a new run, keeping what it allocated for
// the last one: line records, log, fence queues, map buckets, scratch and
// the retired store records. The records still pending or queued leave
// with the run and are retired too, except those a crash state captured
// before the reset holds; then the pin restarts with the new run's
// sequence numbers. A durable image that was snapshotted is replaced,
// since snapshots share its pages.
func (t *Tracker) Reset() {
	for line, pl := range t.lines {
		delete(t.lines, line)
		t.releaseLine(pl)
	}
	// A pending dirty store sits in no fence queue; every other record
	// the tracker still holds sits in exactly one, and is retired there.
	for _, st := range t.log {
		if st != nil && st.State == StoreDirty {
			t.retire(st)
		}
	}
	clear(t.log)
	t.log = t.log[:0]
	t.nPending = 0
	for i, q := range t.flushed {
		for _, st := range q {
			t.retire(st)
		}
		clear(q)
		t.flushed[i] = q[:0]
	}
	if t.writeThrough || len(t.durable.chunks) > 0 {
		t.durable = NewMemory()
	}
	t.durableQ = t.durableQ[:0]
	clear(t.seeds)
	t.seeds = t.seeds[:0]
	t.writeThrough = false
	t.pin, t.lastStore = -1, -1
	t.lastFence = t.lastFence[:0]
	t.RedundantFlushes = t.RedundantFlushes[:0]
	t.RedundantFences = 0
	t.DurableStores = 0
	t.TotalStores = 0
	clear(t.Publishes)
	t.Publishes = t.Publishes[:0]
}

// writeDurable makes data at addr part of the durable image, queueing the
// write unless the image has been snapshotted. Data longer than 8 bytes
// is queued by reference and must not be modified afterwards.
func (t *Tracker) writeDurable(addr uint64, data []byte) {
	if t.writeThrough {
		t.durable.Write(addr, data)
		return
	}
	if len(data) == 0 {
		return
	}
	if len(t.durableQ) == cap(t.durableQ) {
		t.syncDurable()
	}
	w := durableWrite{addr: addr}
	if len(data) <= len(w.data) {
		w.size = uint8(copy(w.data[:], data))
	} else {
		w.seed = int32(len(t.seeds))
		t.seeds = append(t.seeds, data)
	}
	t.durableQ = append(t.durableQ, w)
}

// syncDurable applies the queued durable writes in order. Every reader of
// t.durable calls it first, so it sees the bytes eager writes would have
// left.
func (t *Tracker) syncDurable() {
	for i := range t.durableQ {
		w := &t.durableQ[i]
		if w.size == 0 {
			t.durable.Write(w.addr, t.seeds[w.seed])
		} else {
			t.durable.Write(w.addr, w.data[:w.size])
		}
	}
	t.durableQ = t.durableQ[:0]
	clear(t.seeds)
	t.seeds = t.seeds[:0]
}

// snapshotDurable returns a copy-on-write snapshot of the up-to-date
// durable image and switches the tracker to writing through.
func (t *Tracker) snapshotDurable() *Memory {
	t.syncDurable()
	t.writeThrough = true
	return t.durable.Snapshot()
}

// lineFor returns line's pending list, creating an empty one if needed.
func (t *Tracker) lineFor(line uint64) *pendingList {
	if pl := t.lines[line]; pl != nil {
		return pl
	}
	var pl *pendingList
	if n := len(t.freeLines); n > 0 {
		pl = t.freeLines[n-1]
		t.freeLines = t.freeLines[:n-1]
	} else {
		pl = &pendingList{}
	}
	t.lines[line] = pl
	return pl
}

// releaseLine keeps the record of a line just deleted from lines for
// reuse.
func (t *Tracker) releaseLine(pl *pendingList) {
	pl.stores = pl.stores[:0]
	t.freeLines = append(t.freeLines, pl)
}

// retire hands st, which has left pending and sits in no fence queue, to
// Store for reuse, unless a crash state may hold it or the free list is
// full.
func (t *Tracker) retire(st *TrackedStore) {
	if st.Seq > t.pin && len(t.free) < freeMax {
		t.free = append(t.free, st)
	}
}

// unlink tombstones st's log entry: st is no longer pending.
func (t *Tracker) unlink(st *TrackedStore) {
	t.log[st.logIdx] = nil
	st.logIdx = -1
	t.nPending--
}

// compactLog squeezes the tombstones out of the log once they outnumber
// the live entries. Each compaction costs at most twice the tombstones it
// removes, so it is amortized O(1) per unlink.
func (t *Tracker) compactLog() {
	if len(t.log)-t.nPending <= t.nPending {
		return
	}
	live := t.log[:0]
	for _, st := range t.log {
		if st != nil {
			st.logIdx = int32(len(live))
			live = append(live, st)
		}
	}
	t.log = live
}

// enqueueFlushed appends st to tid's fence queue. A full queue first
// drops its stale entries, retiring their records, so a thread that
// rarely fences cannot grow its queue past twice its live entries.
func (t *Tracker) enqueueFlushed(tid int, st *TrackedStore) {
	for len(t.flushed) <= tid {
		t.flushed = append(t.flushed, nil)
	}
	q := t.flushed[tid]
	if len(q) == cap(q) {
		live := q[:0]
		for _, s := range q {
			if s.logIdx >= 0 {
				live = append(live, s)
			} else {
				t.retire(s)
			}
		}
		q = live
	}
	t.flushed[tid] = append(q, st)
}

// Store records a store of data (1 to 8 bytes, within one cache line) at
// addr in persistent memory by thread tid. A store that exactly
// overwrites a pending store replaces it (the old update can no longer be
// observed after a crash). nt makes it a non-temporal store: it bypasses
// the cache and is durable after the issuing thread's next fence (born in
// the flushed state). pub says whether publish detection follows the
// stored value once the store is durable (it does only for an 8-byte
// store of a PM address): the machine always lets it, and a detector fed
// from a trace lets it only where the trace recorded the value
// (trace.Event.Val), so a replay and the run that recorded the trace
// agree.
//
// The returned record is valid only until the store leaves pending
// (it is committed or exactly overwritten, or the tracker is Reset):
// then the tracker may recycle it for a later store. Only a crash state
// keeps its records for good.
func (t *Tracker) Store(seq, tid int, addr uint64, data []byte, nt, pub bool) *TrackedStore {
	if len(data) == 0 || len(data) > 8 || LineOf(addr) != LineOf(addr+uint64(len(data))-1) {
		panic(fmt.Sprintf("pmem: store at %#x size %d is not 1-8 bytes within one cache line", addr, len(data)))
	}
	t.TotalStores++
	t.lastStore = seq
	pl := t.lineFor(LineOf(addr))
	overwrote := false
	for i, old := range pl.stores {
		if old.Addr == addr && old.Size() == len(data) {
			// Exact overwrite: drop the stale pending store. A dirty one
			// sits in no fence queue; a flushed one is retired when its
			// queue drops it.
			pl.stores = append(pl.stores[:i], pl.stores[i+1:]...)
			t.unlink(old)
			if old.State == StoreDirty {
				t.retire(old)
			}
			overwrote = true
			break
		}
	}
	var st *TrackedStore
	if n := len(t.free); n > 0 {
		st = t.free[n-1]
		t.free = t.free[:n-1]
	} else {
		st = &t.stores.Take(1)[0]
	}
	*st = TrackedStore{
		Addr:     addr,
		Seq:      seq,
		State:    StoreDirty,
		FlushSeq: -1,
		Tid:      tid,
		FlushTid: -1,
		logIdx:   int32(len(t.log)),
		size:     uint8(len(data)),
		pub:      pub && len(data) == 8,
	}
	copy(st.data[:], data)
	if nt {
		st.State = StoreFlushed
		st.FlushSeq = seq
		st.FlushTid = tid
		st.NT = true
		t.enqueueFlushed(tid, st)
	}
	t.log = append(t.log, st)
	pl.stores = append(pl.stores, st)
	t.nPending++
	if overwrote {
		t.compactLog()
	}
	return st
}

// Flush records a flush by thread tid of the cache line containing addr
// and returns the number of stores it transitioned. An ordered flush
// (CLFLUSH) commits affected stores immediately; CLWB and CLFLUSHOPT move
// them to StoreFlushed pending a fence. Flushes act on whole cache lines
// regardless of who dirtied them (cache coherence), so a thread's flush
// writes back other threads' stores on the line; the flusher is recorded
// so fences drain only their own core's flushes.
func (t *Tracker) Flush(seq, tid int, ordered bool, addr uint64) int {
	line := LineOf(addr)
	moved := 0
	pl := t.lines[line]
	switch {
	case pl == nil:
	case ordered:
		// CLFLUSH retires both dirty and previously flushed stores.
		// Remove the line from pending before committing so publish
		// detection never sees a same-pass store as still pending. A
		// flushed store's record stays in its fence queue until the
		// queue drops it.
		delete(t.lines, line)
		for _, st := range pl.stores {
			t.unlink(st)
		}
		for _, st := range pl.stores {
			queued := st.State == StoreFlushed
			t.commit(st)
			if !queued {
				t.retire(st)
			}
			moved++
		}
		t.releaseLine(pl)
		t.compactLog()
	default:
		for _, st := range pl.stores {
			if st.State == StoreDirty {
				st.State = StoreFlushed
				st.FlushSeq = seq
				st.FlushTid = tid
				t.enqueueFlushed(tid, st)
				moved++
			}
		}
	}
	if moved == 0 {
		t.RedundantFlushes = append(t.RedundantFlushes, RedundantFlush{Addr: addr, Seq: seq})
	}
	return moved
}

// Fence records a store fence by thread tid: every store whose flush the
// fencing thread issued becomes durable (SFENCE orders the issuing core's
// own flushes; another thread's CLWB is not drained by this thread's
// fence). It returns the number of distinct cache lines drained (the
// unit the cost model charges for, since the memory controller retires
// write-backs per line).
func (t *Tracker) Fence(seq, tid int) int {
	for len(t.lastFence) <= tid {
		t.lastFence = append(t.lastFence, -1)
	}
	t.lastFence[tid] = seq
	commits := t.commitScratch[:0]
	if tid < len(t.flushed) {
		q := t.flushed[tid]
		for _, st := range q {
			if st.logIdx >= 0 {
				commits = append(commits, st)
			} else {
				t.retire(st)
			}
		}
		t.flushed[tid] = q[:0]
	}
	if len(commits) == 0 {
		t.RedundantFences++
		return 0
	}
	// Commit order must be global store order, so later overwrites win in
	// the durable image; the queue is in flush order.
	slices.SortFunc(commits, func(a, b *TrackedStore) int { return cmp.Compare(a.Seq, b.Seq) })
	// Two passes: detach every store this fence commits, then commit
	// them. Publish detection inside commit scans pending, so same-fence
	// commits must not be observable as pending.
	for _, st := range commits {
		t.unlink(st)
	}
	t.fenceEpoch++
	lines := 0
	for _, st := range commits {
		line := LineOf(st.Addr)
		pl := t.lines[line]
		if pl == nil || pl.epoch == t.fenceEpoch {
			continue // line already drained by this fence
		}
		pl.epoch = t.fenceEpoch
		lines++
		keep := pl.stores[:0]
		for _, s := range pl.stores {
			if s.logIdx >= 0 {
				keep = append(keep, s)
			}
		}
		pl.stores = keep
		if len(keep) == 0 {
			delete(t.lines, line)
			t.releaseLine(pl)
		}
	}
	for _, st := range commits {
		t.commit(st)
		t.retire(st)
	}
	t.commitScratch = commits[:0]
	t.compactLog()
	return lines
}

// commit makes st durable. The caller retires st afterwards if it sits
// in no fence queue.
func (t *Tracker) commit(st *TrackedStore) {
	st.State = StoreDurable
	t.writeDurable(st.Addr, st.Data())
	t.DurableStores++
	t.checkPublish(st)
}

// checkPublish flags cross-thread unordered publishes: st just became
// durable; if it is a pointer-sized store of a PM address whose target
// line still has pending stores from other threads, the publish made
// data reachable that a crash can lose.
func (t *Tracker) checkPublish(st *TrackedStore) {
	if !st.pub {
		return
	}
	val := binary.LittleEndian.Uint64(st.data[:])
	if !IsPM(val) {
		return
	}
	pl := t.lines[LineOf(val)]
	if pl == nil {
		return
	}
	for _, ref := range pl.stores {
		if ref.Tid != st.Tid {
			t.Publishes = append(t.Publishes, CrossThreadPublish{
				PubAddr: st.Addr, PubSeq: st.Seq, PubTid: st.Tid, Val: val, Referent: *ref,
			})
		}
	}
}

// lastFenceOf returns the sequence of tid's latest fence, or -1.
func (t *Tracker) lastFenceOf(tid int) int {
	if tid < len(t.lastFence) {
		return t.lastFence[tid]
	}
	return -1
}

// Violations evaluates durability point seq: it yields every pending
// store as a violation, classified per the paper's bug taxonomy, in
// sequence order. Pending stores are kept (the program may still persist
// them later; the detector deduplicates reports by program location). A
// violation's Store record is valid only until the next event, and the
// tracker must not be fed events while the sequence is iterated.
func (t *Tracker) Violations(seq int) iter.Seq[Violation] {
	return func(yield func(Violation) bool) {
		for _, st := range t.log {
			if st == nil {
				continue
			}
			v := Violation{Store: st, CheckpointSeq: seq}
			switch {
			case st.State == StoreFlushed:
				v.Class = MissingFence
			case t.lastFenceOf(st.Tid) > st.Seq:
				v.Class = MissingFlush
			default:
				v.Class = MissingFlushFence
			}
			if !yield(v) {
				return
			}
		}
	}
}

// NumPending returns the count of non-durable stores.
func (t *Tracker) NumPending() int { return t.nPending }

// SeedDurable marks pre-existing PM content (e.g. persistent-global
// initializers, or an image surviving a restart) as durable without
// counting it as a program store. The tracker may apply the write later,
// so the caller must not modify data afterwards.
func (t *Tracker) SeedDurable(addr uint64, data []byte) {
	t.writeDurable(addr, data)
}

// CrashImage builds a possible post-crash PM image: the durable bytes plus
// any subset of the pending stores chosen by keep (cache lines may be
// evicted at any time, so any subset of non-durable stores may have
// reached PM). Chosen stores are applied in sequence order so later
// overwrites win, matching store order within a line.
func (t *Tracker) CrashImage(keep func(*TrackedStore) bool) *Memory {
	t.syncDurable()
	img := t.durable.Clone()
	for _, st := range t.log {
		if st != nil && keep(st) {
			img.Write(st.Addr, st.Data())
		}
	}
	return img
}

// PendingLine groups the non-durable stores of one cache line, in
// sequence order. It is the unit of the crash-schedule model: a cache
// line writes back to PM atomically and cumulatively, so the feasible
// post-crash contents of one line are exactly the prefixes of its
// pending-store sequence (the line's content at the moment of its last
// eviction), not arbitrary subsets.
type PendingLine struct {
	// Line is the cache-line base address.
	Line uint64
	// Stores are the line's non-durable stores, sequence-ordered.
	Stores []*TrackedStore
}

// PendingLines returns the pending stores grouped by cache line, each
// group sequence-ordered, groups ordered by line address. The result is
// deterministic for a given tracker state, so an index into it is a
// stable coordinate for crash-schedule enumeration. Its records are valid
// until they leave pending; CaptureCrashState keeps them for good.
func (t *Tracker) PendingLines() []PendingLine {
	out := make([]PendingLine, 0, len(t.lines))
	// One backing array holds every line's stores; each line's slice is
	// capacity-clipped so an append by the caller cannot clobber the next.
	all := make([]*TrackedStore, 0, t.nPending)
	for line, pl := range t.lines {
		n := len(all)
		all = append(all, pl.stores...)
		out = append(out, PendingLine{Line: line, Stores: all[n:len(all):len(all)]})
	}
	slices.SortFunc(out, func(a, b PendingLine) int { return cmp.Compare(a.Line, b.Line) })
	return out
}
