package interp

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"hippocrates/internal/arena"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// Deterministic thread scheduling.
//
// The machine models concurrency the way deterministic model checkers
// do: a simulated thread is data, its frame stack plus the visible
// operation it has announced, and every thread runs on the goroutine
// that called Run, so machine state needs no locks and replay is exact.
// Before each *visible* operation — a PM store/NT-store, a PM flush, a
// fence, a durability point, any atomic access, a spawn, a join, or a
// PM bulk builtin — the running thread announces the operation, before
// any of its effects, and asks the scheduler who runs next. Decisions
// are therefore taken only at PM-relevant boundaries, which is exactly
// the granularity the interleaving explorer (internal/schedule) wants:
// the volatile compute between visible ops commutes and never needs
// splitting.
//
// When the scheduler picks another thread, the announcing thread parks
// at its op with nothing of it done, and the interpreter loop carries
// on with the chosen thread's frames. When the parked thread is chosen
// again it re-runs the op, which then neither announces again nor
// counts again. A thread whose entry returns wakes its joiners and
// hands on; an error in any thread ends the run.
//
// A schedule is a prefix of decision choices; past the prefix the
// scheduler falls back to round-robin. Replaying the same choices
// reproduces the run bit-for-bit, which is what makes schedule IDs
// replayable crash coordinates.

// threadStackSeg is the simulated stack carved out for each thread: the
// stack is statically partitioned into pmem.MaxThreads segments.
const threadStackSeg = uint64(pmem.StackMax) / pmem.MaxThreads

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
// so the fields are ordered to pack into 16 bytes (thread ids stay below
// pmem.MaxThreads).
type PendingOp struct {
	// Addr is the target address for store/nt-store/flush/atomic
	// operations (its cache line decides commutativity in the explorer),
	// the target thread id for join, and 0 otherwise.
	Addr uint64
	Tid  int32
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
	n := 1 // "c:" less the first choice's '.'
	for _, c := range choices {
		n += 1 + digits(c)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString("c:")
	var num [20]byte
	for i, c := range choices {
		if i > 0 {
			b.WriteByte('.')
		}
		b.Write(strconv.AppendInt(num[:0], int64(c), 10))
	}
	return b.String()
}

// digits is the length of choice c (never negative) in decimal.
func digits(c int) int {
	n := 1
	for ; c >= 10; c /= 10 {
		n++
	}
	return n
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
	thDone     // entry function returned
)

// errSwitch is what an announcement returns when the scheduler chose
// another thread to run first. The announcing thread is parked at its
// op, with nothing of the op done, and the chosen thread is installed;
// the caller returns errSwitch to the interpreter loop unchanged.
var errSwitch = errors.New("interp: thread switch")

type thread struct {
	tid     int
	state   int
	pending PendingOp
	// announced marks a thread parked at the op it announced: when it
	// is chosen again, that op runs without announcing a second time.
	announced bool
	// frames holds the thread's simulated call stack while it is not
	// running; the running thread's stack lives in Machine.frames.
	frames []*frame
	// fn and args are the thread's entry call. Its frame is pushed when
	// the thread is first scheduled.
	fn     *ir.Func
	args   []uint64
	joinOn int  // tid this thread waits on while thBlocked
	joined bool // a join on this thread has completed
	result uint64
}

// mtState exists only once a program spawns: single-threaded runs never
// allocate it and take none of the scheduling branches, so their
// execution (and trace) is byte-identical to the pre-concurrency
// machine.
type mtState struct {
	threads    []*thread // index == tid; threads[0] is main
	cur        int       // tid of the running thread
	choices    []int     // replayed decision prefix (Options.Schedule)
	nextChoice int
	decisions  []Decision
	// runnable is pick's scratch list of runnable threads, reused
	// across decisions.
	runnable []*thread
	// pending is the arena the decisions' Runnable slices are carved
	// from, so a decision costs no allocation of its own. It starts at
	// 4 ops: an explored run makes a few dozen decisions among two or
	// three threads, and a larger first chunk is mostly abandoned tail.
	pending arena.Chunks[PendingOp]
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
// this log. Callers must not mutate it, and it is valid until the
// machine is Reset. A run without decisions returns nil, whether or not
// the machine ran before.
func (m *Machine) Decisions() []Decision {
	if m.mt == nil || len(m.mt.decisions) == 0 {
		return nil
	}
	return m.mt.decisions
}

// ensureMT lazily creates the scheduler state on first spawn, reusing
// the state a previous run left idle, and confines main to its stack
// segment.
func (m *Machine) ensureMT() *mtState {
	if m.mt == nil {
		mt := m.idle
		if mt == nil {
			mt = &mtState{pending: arena.New[PendingOp](4, 512)}
		}
		m.idle = nil
		mt.threads = mt.threads[:0]
		mt.newThread(PendingOp{})
		mt.cur = 0
		mt.choices, mt.nextChoice = m.opts.Schedule, 0
		mt.decisions = mt.decisions[:0]
		m.mt = mt
		m.setStackSeg(0)
	}
	return m.mt
}

// newThread appends a runnable thread announcing p, reusing the record
// a previous run left at its index, and returns it.
func (mt *mtState) newThread(p PendingOp) *thread {
	tid := len(mt.threads)
	var t *thread
	if tid < cap(mt.threads) {
		t = mt.threads[:tid+1][tid]
	}
	if t == nil {
		t = new(thread)
	}
	*t = thread{tid: tid, state: thRunnable, pending: p}
	mt.threads = append(mt.threads, t)
	return t
}

// setStackSeg points the stack allocator at tid's segment. Thread k
// owns [StackBase-(k+1)*seg, StackBase-k*seg).
func (m *Machine) setStackSeg(tid int) {
	m.stackBase = pmem.StackBase - uint64(tid)*threadStackSeg
	m.stackLimit = m.stackBase - threadStackSeg
}

// spawnThread creates a thread executing fn(args) and returns its
// handle (the thread id). The thread is runnable with a PendStart
// announcement; it begins executing only when the scheduler first
// picks it.
func (m *Machine) spawnThread(fn *ir.Func, args []uint64) (int, error) {
	mt := m.ensureMT()
	tid := len(mt.threads)
	if tid >= pmem.MaxThreads {
		return 0, m.fault("too many threads spawning @%s (max %d)", fn.Name, pmem.MaxThreads)
	}
	t := mt.newThread(PendingOp{Tid: int32(tid), Kind: PendStart})
	t.fn, t.args = fn, args
	return tid, nil
}

// announce declares the running thread's next visible operation p and
// lets the scheduler choose who performs a visible operation next. It
// returns nil when the running thread goes on with p now, and errSwitch
// when another thread was chosen and installed. A thread re-running the
// op it parked at gets nil without announcing again. A join announces
// on its target in p.Addr and blocks while the target is live.
// Single-threaded runs return nil at once.
func (m *Machine) announce(p PendingOp) error {
	mt := m.mt
	if mt == nil {
		return nil
	}
	self := mt.threads[mt.cur]
	if self.announced {
		self.announced = false
		return nil
	}
	p.Tid = int32(self.tid)
	self.pending = p
	if p.Kind == PendJoin && mt.threads[p.Addr].state != thDone {
		self.state = thBlocked
		self.joinOn = int(p.Addr)
	}
	next, err := m.pick()
	if err != nil {
		return err
	}
	if next == self {
		return nil
	}
	self.announced = true
	m.switchTo(next)
	return errSwitch
}

// resuming reports whether the running thread is re-running the op it
// parked at, for the one op (a PM flush) that charges time before its
// announcement.
func (m *Machine) resuming() bool {
	return m.mt != nil && m.mt.threads[m.mt.cur].announced
}

// join waits for the thread with handle h to finish and returns its
// result.
func (m *Machine) join(h uint64) (uint64, error) {
	mt := m.mt
	if mt == nil {
		return 0, m.fault("join before any spawn")
	}
	tid := int(h)
	if tid <= 0 || tid >= len(mt.threads) {
		return 0, m.fault("join on invalid thread handle %d", int64(h))
	}
	// A thread parked at this join re-runs the check when it is chosen
	// again, so a thread that won the race to join in between is seen.
	t := mt.threads[tid]
	if t.joined {
		return 0, m.fault("thread %d joined twice", tid)
	}
	if err := m.announce(PendingOp{Kind: PendJoin, Addr: uint64(tid)}); err != nil {
		return 0, err
	}
	t.joined = true
	m.Clock.Advance(m.cost.Call)
	return t.result, nil
}

// exitThread retires the running spawned thread, whose entry function
// returned ret: it wakes the thread's joiners and installs the thread
// pick chooses next.
func (m *Machine) exitThread(ret uint64) error {
	mt := m.mt
	t := mt.threads[mt.cur]
	t.state, t.result = thDone, ret
	for _, o := range mt.threads {
		if o.state == thBlocked && o.joinOn == t.tid {
			o.state = thRunnable
		}
	}
	next, err := m.pick()
	if err != nil {
		return err
	}
	m.switchTo(next)
	return nil
}

// switchTo parks the running thread's frames and installs next's frames
// and stack segment.
func (m *Machine) switchTo(next *thread) {
	mt := m.mt
	mt.threads[mt.cur].frames = m.frames
	m.frames, next.frames = next.frames, nil
	mt.cur = next.tid
	m.setStackSeg(next.tid)
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
	pend := mt.pending.Take(len(run))
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
