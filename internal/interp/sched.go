package interp

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// Deterministic thread scheduling.
//
// The machine models concurrency the way deterministic model checkers
// do: every spawned thread runs on its own goroutine, but an unbuffered
// channel baton guarantees exactly one thread executes at a time, so
// machine state needs no locks and replay is exact. Before each
// *visible* operation — a PM store/NT-store, a PM flush, a fence, a
// durability point, any atomic access, a spawn, or a join — the running
// thread announces the operation and asks the scheduler who runs next.
// Decisions are therefore taken only at PM-relevant boundaries, which
// is exactly the granularity the interleaving explorer
// (internal/schedule) wants: the volatile compute between visible ops
// commutes and never needs splitting. Once scheduled, a thread runs
// until its next announcement (or until its body returns, at which
// point it retires and hands the baton on).
//
// A schedule is a prefix of decision choices; past the prefix the
// scheduler falls back to round-robin. Replaying the same choices
// reproduces the run bit-for-bit, which is what makes schedule IDs
// replayable crash coordinates.

// maxThreads bounds live threads per machine; the simulated stack is
// statically partitioned into this many segments.
const maxThreads = 16

// threadStackSeg is the simulated stack carved out for each thread.
const threadStackSeg = uint64(pmem.StackMax) / maxThreads

// PendKind classifies the visible operation a thread has announced.
type PendKind uint8

// The announced-operation kinds. PendStart marks a spawned thread that
// has not yet entered its body; the other kinds mirror the PM event and
// synchronization boundaries the scheduler interleaves on.
const (
	PendStart PendKind = iota
	PendStore
	PendNTStore
	PendFlush
	PendFence
	PendCheckpoint
	PendAtomic
	PendSpawn
	PendJoin
)

// PendingOp is a thread's announced next visible operation. Every
// decision point copies one per runnable thread into the decision log,
// so the fields are ordered to pack into 24 bytes.
type PendingOp struct {
	Tid int
	// Addr is the target address for store/nt-store/flush/atomic
	// operations (its cache line decides commutativity in the explorer),
	// the target thread id for join, and 0 otherwise.
	Addr uint64
	Kind PendKind
	// Ordered marks a flush that commits its line immediately (CLFLUSH /
	// ordered flush_range). Ordered flushes change the durable image
	// mid-interleaving, so the explorer must treat them as conflicting
	// with every other operation; weak flushes (CLWB) only mark lines
	// flushed-pending and commute across cache lines.
	Ordered bool
}

// Decision records one scheduling choice: the announced operations of
// every runnable thread at the decision point (in thread-id order) and
// which one ran. Decision points exist only where at least two threads
// are runnable; single-runnable steps are forced and recorded nowhere.
type Decision struct {
	Runnable []PendingOp
	Chosen   int // index into Runnable
}

// ScheduleID renders a choice prefix as a compact replayable string:
// "rr" for the empty prefix (pure round-robin) and e.g. "c:1.0.2" for
// the prefix [1 0 2].
func ScheduleID(choices []int) string {
	if len(choices) == 0 {
		return "rr"
	}
	var b strings.Builder
	b.WriteString("c:")
	for i, c := range choices {
		if i > 0 {
			b.WriteByte('.')
		}
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

// ParseScheduleID inverts ScheduleID. The empty string is accepted as
// "rr".
func ParseScheduleID(s string) ([]int, error) {
	if s == "" || s == "rr" {
		return nil, nil
	}
	body, ok := strings.CutPrefix(s, "c:")
	if !ok {
		return nil, fmt.Errorf("interp: bad schedule id %q (want \"rr\" or \"c:N.N...\")", s)
	}
	parts := strings.Split(body, ".")
	out := make([]int, len(parts))
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("interp: bad schedule id %q: choice %q", s, p)
		}
		out[i] = n
	}
	return out, nil
}

// Thread lifecycle states.
const (
	thRunnable = iota
	thBlocked  // parked on a join whose target is still live
	thDone     // body returned (or thread killed during teardown)
)

// killSentinel is the panic value used to unwind a parked thread when
// the run is torn down; threadBody and runMain recover it.
type killSentinel struct{}

type thread struct {
	tid     int
	state   int
	pending PendingOp
	// frames holds the thread's simulated call stack while it is not
	// running; the baton holder's stack lives in Machine.frames.
	frames []*frame
	joinOn int  // tid this thread waits on while thBlocked
	joined bool // a join on this thread has completed
	result uint64
	err    error
	// resume is the baton: an unbuffered handoff that wakes the thread.
	// The waker installs the thread's frames and stack segment before
	// sending, so the wakee (even one waking only to be killed) unwinds
	// its own stack.
	resume chan struct{}
}

// mtState exists only once a program spawns: single-threaded runs never
// allocate it and take none of the scheduling branches, so their
// execution (and trace) is byte-identical to the pre-concurrency
// machine.
type mtState struct {
	threads    []*thread // index == tid; threads[0] is main
	cur        int       // tid holding the baton
	choices    []int     // replayed decision prefix (Options.Schedule)
	nextChoice int
	decisions  []Decision
	// runnable is pick's scratch list of runnable threads, reused
	// across decisions.
	runnable []*thread
	killed   bool
	err      error // first error from any thread; the run's verdict
	// ack serializes the kill sweep: non-nil only while killThreads
	// wakes parked threads one at a time.
	ack chan struct{}
	wg  sync.WaitGroup
}

func (m *Machine) curTid() int {
	if m.mt == nil {
		return 0
	}
	return m.mt.cur
}

// ThreadCount returns the number of threads the run has created,
// including main. Single-threaded runs report 1.
func (m *Machine) ThreadCount() int {
	if m.mt == nil {
		return 1
	}
	return len(m.mt.threads)
}

// Decisions returns the scheduling decision log of the run: one entry
// per point where at least two threads were runnable, including those
// replayed from Options.Schedule. The interleaving explorer branches on
// this log. Callers must not mutate it.
func (m *Machine) Decisions() []Decision {
	if m.mt == nil {
		return nil
	}
	return m.mt.decisions
}

// ensureMT lazily creates the scheduler state on first spawn and
// confines main to its stack segment.
func (m *Machine) ensureMT() *mtState {
	if m.mt == nil {
		main := &thread{tid: 0, state: thRunnable, joinOn: -1, resume: make(chan struct{})}
		m.mt = &mtState{threads: []*thread{main}, choices: m.opts.Schedule}
		m.setStackSeg(0)
	}
	return m.mt
}

// setStackSeg points the stack allocator at tid's segment. Thread k
// owns [StackBase-(k+1)*seg, StackBase-k*seg).
func (m *Machine) setStackSeg(tid int) {
	m.stackBase = pmem.StackBase - uint64(tid)*threadStackSeg
	m.stackLimit = m.stackBase - threadStackSeg
}

// threadStart carries a spawned thread's entry function and arguments
// to its goroutine.
type threadStart struct {
	fn   *ir.Func
	args []uint64
}

// spawnThread creates a thread executing fn(args) and returns its
// handle (the thread id). The thread is runnable with a PendStart
// announcement; it begins executing only when the scheduler first
// picks it.
func (m *Machine) spawnThread(fn *ir.Func, args []uint64) (int, error) {
	mt := m.ensureMT()
	tid := len(mt.threads)
	if tid >= maxThreads {
		return 0, m.fault("too many threads spawning @%s (max %d)", fn.Name, maxThreads)
	}
	t := &thread{
		tid:     tid,
		state:   thRunnable,
		pending: PendingOp{Tid: tid, Kind: PendStart},
		joinOn:  -1,
		resume:  make(chan struct{}),
	}
	mt.threads = append(mt.threads, t)
	mt.wg.Add(1)
	go m.threadBody(t, &threadStart{fn: fn, args: args})
	return tid, nil
}

// yieldPM announces a pending visible operation and lets the scheduler
// hand the baton to another thread first. Single-threaded runs return
// immediately.
func (m *Machine) yieldPM(kind PendKind, addr uint64) error {
	mt := m.mt
	if mt == nil {
		return nil
	}
	self := mt.threads[mt.cur]
	self.pending = PendingOp{Tid: self.tid, Kind: kind, Addr: addr}
	return m.schedNext()
}

// yieldFlush announces a pending flush, carrying whether it commits its
// line immediately (ordered) — the explorer needs the distinction.
func (m *Machine) yieldFlush(addr uint64, ordered bool) error {
	mt := m.mt
	if mt == nil {
		return nil
	}
	self := mt.threads[mt.cur]
	self.pending = PendingOp{Tid: self.tid, Kind: PendFlush, Addr: addr, Ordered: ordered}
	return m.schedNext()
}

// yieldJoin announces a join on target, blocking self if the target is
// still live. On return the target has retired.
func (m *Machine) yieldJoin(target int) error {
	mt := m.mt
	self := mt.threads[mt.cur]
	self.pending = PendingOp{Tid: self.tid, Kind: PendJoin, Addr: uint64(target)}
	if mt.threads[target].state != thDone {
		self.state = thBlocked
		self.joinOn = target
	}
	if err := m.schedNext(); err != nil {
		return err
	}
	self.joinOn = -1
	return nil
}

// schedNext picks the next thread to run and passes the baton. It is
// the common tail of every announcement.
func (m *Machine) schedNext() error {
	mt := m.mt
	self := mt.threads[mt.cur]
	next, err := m.pick()
	if err != nil {
		return m.abortAll(err)
	}
	if next == self {
		return nil
	}
	m.passBaton(next)
	return nil
}

// pick chooses the next runnable thread: the replayed schedule prefix
// decides while it lasts, then round-robin. A decision is recorded at
// every point with two or more runnable threads.
func (m *Machine) pick() (*thread, error) {
	mt := m.mt
	run := mt.runnable[:0]
	for _, t := range mt.threads {
		if t.state == thRunnable {
			run = append(run, t)
		}
	}
	mt.runnable = run
	if len(run) == 0 {
		return nil, m.deadlockErr()
	}
	if len(run) == 1 {
		return run[0], nil
	}
	pend := make([]PendingOp, len(run))
	for i, t := range run {
		pend[i] = t.pending
	}
	var idx int
	if mt.nextChoice < len(mt.choices) {
		idx = mt.choices[mt.nextChoice]
		if idx < 0 || idx >= len(run) {
			return nil, m.fault("schedule decision %d: choice %d out of range (%d runnable threads)",
				mt.nextChoice, idx, len(run))
		}
	} else {
		idx = rrIndex(run, mt.cur)
	}
	mt.nextChoice++
	mt.decisions = append(mt.decisions, Decision{Runnable: pend, Chosen: idx})
	return run[idx], nil
}

// rrIndex is the default policy: the first runnable thread after the
// current one in cyclic tid order. run is sorted by tid.
func rrIndex(run []*thread, cur int) int {
	for i, t := range run {
		if t.tid > cur {
			return i
		}
	}
	return 0
}

func (m *Machine) deadlockErr() error {
	mt := m.mt
	var parts []string
	for _, t := range mt.threads {
		if t.state == thBlocked {
			parts = append(parts, fmt.Sprintf("thread %d joins %d", t.tid, t.joinOn))
		}
	}
	return m.fault("deadlock: no runnable thread (%s)", strings.Join(parts, ", "))
}

// passBaton hands execution to next and parks the caller until it is
// scheduled again. The caller installs next's frames and stack segment
// before waking it, so every thread — including one woken only to be
// killed — unwinds its own simulated stack.
func (m *Machine) passBaton(next *thread) {
	mt := m.mt
	self := mt.threads[mt.cur]
	self.frames = m.frames
	m.frames = next.frames
	next.frames = nil
	mt.cur = next.tid
	m.setStackSeg(next.tid)
	next.resume <- struct{}{}
	<-self.resume
	if mt.killed {
		panic(killSentinel{})
	}
}

// wakeForAbort hands the baton to a parked thread (always main) so it
// can unwind with mt.err. The caller's goroutine must touch no machine
// state afterwards.
func (m *Machine) wakeForAbort(t *thread) {
	mt := m.mt
	m.frames = t.frames
	t.frames = nil
	mt.cur = t.tid
	m.setStackSeg(t.tid)
	t.resume <- struct{}{}
}

// abortAll records err as the run's verdict and tears the run down. On
// main it simply returns the error (Run's teardown sweeps the rest); on
// a spawned thread it unwinds via the kill sentinel, whose recovery
// hands the baton to main.
func (m *Machine) abortAll(err error) error {
	mt := m.mt
	if mt.err == nil {
		mt.err = err
	}
	mt.killed = true
	if mt.cur == 0 {
		return err
	}
	panic(killSentinel{})
}

// threadBody is the goroutine running one spawned thread. It parks
// until first scheduled, runs the function, then retires.
func (m *Machine) threadBody(t *thread, fn *threadStart) {
	mt := m.mt
	defer mt.wg.Done()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		if _, ok := r.(killSentinel); !ok {
			panic(r)
		}
		t.state = thDone
		t.frames = nil
		if mt.ack != nil {
			mt.ack <- struct{}{} // killThreads sweep: acknowledge and exit
		} else {
			m.wakeForAbort(mt.threads[0]) // we held the baton; main unwinds
		}
	}()
	<-t.resume
	if mt.killed {
		panic(killSentinel{})
	}
	ret, err := m.call(fn.fn, fn.args)
	t.result, t.err = ret, err
	m.threadExit(t)
}

// threadExit retires a thread whose body returned: it wakes joiners,
// hands the baton on, and lets the goroutine end. An error verdict
// aborts the whole run instead.
func (m *Machine) threadExit(t *thread) {
	mt := m.mt
	t.state = thDone
	t.frames = nil
	if t.err != nil {
		if mt.err == nil {
			mt.err = t.err
		}
		mt.killed = true
		m.wakeForAbort(mt.threads[0])
		return
	}
	for _, o := range mt.threads {
		if o.state == thBlocked && o.joinOn == t.tid {
			o.state = thRunnable
		}
	}
	next, err := m.pick()
	if err != nil {
		if mt.err == nil {
			mt.err = err
		}
		mt.killed = true
		m.wakeForAbort(mt.threads[0])
		return
	}
	m.frames = next.frames
	next.frames = nil
	mt.cur = next.tid
	m.setStackSeg(next.tid)
	next.resume <- struct{}{}
}

// killThreads tears down any still-parked threads after the run ends
// (normally or with an error). Each parked thread is woken with its own
// frames installed, unwinds via the kill sentinel, and acknowledges;
// the sweep is strictly serial, so machine state stays single-owner.
func (m *Machine) killThreads() {
	mt := m.mt
	if mt == nil {
		return
	}
	mt.killed = true
	mt.ack = make(chan struct{})
	for _, t := range mt.threads[1:] {
		if t.state == thDone {
			continue
		}
		m.frames = t.frames
		t.frames = nil
		mt.cur = t.tid
		t.resume <- struct{}{}
		<-mt.ack
	}
	mt.ack = nil
	mt.cur = 0
	m.frames = m.frames[:0]
	mt.wg.Wait()
}
