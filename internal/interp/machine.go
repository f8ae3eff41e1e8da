// Package interp executes IR modules on the simulated persistent-memory
// machine (internal/pmem). It plays the role that native execution under
// pmemcheck/Valgrind plays in the paper: it runs the program, applies the
// durability state machine to every PM operation, accumulates simulated
// time from the cost model, and (optionally) records the pmemcheck-style
// event trace the fixer consumes, with the bug detector
// (internal/pmcheck) running on the machine's own tracker as it goes.
package interp

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"time"

	"hippocrates/internal/arena"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// Options configures a Machine.
type Options struct {
	// Trace, when non-nil, receives every PM event.
	Trace *trace.Trace
	// Stdout receives output from the print builtins; nil discards it.
	Stdout io.Writer
	// StepLimit bounds executed instructions (0 means DefaultStepLimit).
	// Exceeding it returns a *LimitError.
	StepLimit int64
	// Deadline, when non-zero, is the wall-clock instant after which
	// execution aborts with a *LimitError. The check runs every few
	// thousand instructions, so overshoot is bounded and the hot loop
	// stays branch-cheap.
	Deadline time.Time
	// Memory, when non-nil, is used as the machine's memory instead of a
	// fresh one — pass a crash image here to run recovery code. With
	// ResumePM set, persistent globals are not re-initialized (their
	// bytes are whatever the image holds), matching a restart on real
	// hardware.
	Memory   *pmem.Memory
	ResumePM bool
	// OnPMEvent, when non-nil, is called at every PM event boundary
	// after the event's tracker effect has been applied: k is the 1-based
	// event index (the numbering PMEventLog reports, over stores,
	// NT-stores, flushes, fences, and durability points) and kind the
	// event's kind. Returning a non-nil error aborts the run with it;
	// returning ErrSimulatedCrash crashes the run right there, leaving
	// the machine holding the exact durability state at that boundary,
	// ready for CrashImage. The hook may capture durability state
	// (CaptureCrashState) but must not otherwise mutate the machine; it
	// lets one workload execution stand in for a re-execution per crash
	// point.
	OnPMEvent func(k int, kind PMEventKind) error
	// Schedule replays a scheduling-decision prefix for multi-threaded
	// programs: entry i is the choice taken at the i-th decision point
	// (an index into that point's runnable-thread list). Beyond the
	// prefix the scheduler continues round-robin. Nil/empty is pure
	// round-robin. Single-threaded programs never consult it. See
	// ScheduleID/ParseScheduleID for the textual form.
	Schedule []int
	// NoTrack disables durability tracking: the machine runs with a nil
	// Track, records no violations, and cannot capture crash images
	// (CrashImage and CaptureCrashState panic). Memory semantics are
	// unchanged — stores still hit Mem — only the shadow durability
	// state is skipped. The trace, the decision log and the return value
	// are the same as a tracked run's. Crash-validation recovery boots
	// use this: they only need the entry's verdict, and the tracker's
	// per-store records would be the bulk of a boot's allocation. It
	// excludes Detector.
	NoTrack bool
	// Detector, when non-nil, detects durability bugs as the run
	// executes: New or Reset resets it onto Trace, which must be non-nil
	// and empty (the detector numbers events by trace index), and the
	// machine's Track is the detector's tracker, so SimTime,
	// NumViolations, crash states and OnPMEvent see the state they see
	// without one. Detector.Result is the verdict pmcheck.Check would
	// reach on the recorded trace, without replaying it.
	Detector *pmcheck.Detector
	// Stacks, when non-nil, is the table a traced run interns its call
	// stacks in; nil gives the machine a table of its own on its first
	// traced event. Runs that share a table share its stacks, so share
	// one only between runs of one unchanged module, one run at a time
	// (see StackTable). Untraced runs never touch it.
	Stacks *StackTable
}

// ErrSimulatedCrash is the error an Options.OnPMEvent hook returns to
// crash the run at a PM event boundary; Run returns it and the machine
// remains inspectable.
var ErrSimulatedCrash = fmt.Errorf("interp: simulated crash at durability point")

// DefaultStepLimit is the instruction budget of a run whose
// Options.StepLimit is zero.
const DefaultStepLimit = 100_000_000

// LimitError reports that execution exceeded a configured resource
// limit: the instruction budget (Options.StepLimit) or the wall-clock
// deadline (Options.Deadline). It is how adversarial or generated
// programs fail — a typed, recoverable error rather than a hang.
type LimitError struct {
	// Resource is "steps" or "deadline".
	Resource string
	// Steps is the instruction count when the limit fired.
	Steps int64
	// Limit is the configured step budget (Resource == "steps").
	Limit int64
	// Stack is the simulated call stack at the point of interruption.
	Stack []trace.Frame
}

func (e *LimitError) Error() string {
	var s string
	if e.Resource == "deadline" {
		s = fmt.Sprintf("interp: wall-clock deadline exceeded after %d steps", e.Steps)
	} else {
		s = fmt.Sprintf("interp: step limit exceeded (%d)", e.Limit)
	}
	for _, f := range e.Stack {
		s += "\n\tat " + f.String()
	}
	return s
}

// PMEventKind identifies one PM event boundary for crash injection.
type PMEventKind uint8

// The PM event boundary kinds, in the order PMEventLog reports them.
const (
	EvStore PMEventKind = iota
	EvNTStore
	EvFlush
	EvFence
	EvCheckpoint
)

// numPMEventKinds sizes dense per-kind counter arrays.
const numPMEventKinds = int(EvCheckpoint) + 1

func (k PMEventKind) String() string {
	switch k {
	case EvStore:
		return "store"
	case EvNTStore:
		return "nt-store"
	case EvFlush:
		return "flush"
	case EvFence:
		return "fence"
	case EvCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("event(%d)", int(k))
}

// builtin is the signature of a standard external function handler.
type builtin func(m *Machine, args []uint64) (uint64, error)

// Machine executes one module instance.
type Machine struct {
	Mod   *ir.Module
	Mem   *pmem.Memory
	Track *pmem.Tracker
	Clock pmem.Clock

	opts Options
	cost *pmem.CostModel
	// ownMem is the memory the machine made for a run without
	// Options.Memory; Reset rewinds it for the next such run.
	ownMem *pmem.Memory

	// globals holds the address of every module global, by its index
	// in Mod.Globals; decoded code names globals by that index.
	globals []uint64
	// pmSeeds holds, by global index, each PM global's initial durable
	// bytes: its initializer padded with zeros to its size. Built on the
	// machine's first tracked run and never mutated, so every later run
	// seeds its tracker from the same images (the module's globals must
	// not change between runs of one machine).
	pmSeeds  [][]byte
	heapNext uint64
	pmNext   uint64
	rootAddr uint64
	rootSize uint64

	// frames is the running thread's call stack, innermost last.
	frames    []*frame
	framePool []*frame
	// args carries a builtin's arguments from the caller's registers, so
	// a builtin call allocates nothing.
	args []uint64
	// mt is the scheduler state, allocated lazily on first spawn;
	// single-threaded runs keep it nil and skip every scheduling branch.
	// idle is a previous run's scheduler state, kept by Reset for the
	// next spawn to reuse.
	mt, idle *mtState
	// stackBase/stackLimit bound the running thread's simulated stack
	// segment (the whole stack until a spawn partitions it).
	stackBase  uint64
	stackLimit uint64
	// threadEv counts PM event boundaries per thread and kind, feeding
	// the per-thread observability counters.
	threadEv [][numPMEventKinds]int64
	seq      int
	steps    int64
	max      int64
	// checkAt is the step count at which checkLimits next runs: the
	// dispatch loop pays one comparison per step for both limits.
	checkAt     int64
	deadline    time.Time
	hasDeadline bool
	checkpoints int
	// violations counts the pending stores seen at durability points.
	// The violations themselves are Options.Detector's to report.
	violations int
	// det is Options.Detector; when set, Track is its tracker and every
	// PM event's durability effect goes through it.
	det *pmcheck.Detector

	// pmEventLog records the kind of every PM event boundary, one byte
	// per event; its length is the OnPMEvent coordinate space.
	pmEventLog []PMEventKind

	// events is the trace-recording arena: Event records are carved from
	// chunk allocations, so a traced run pays a few chunk allocations
	// instead of a heap allocation per PM event. Chunks start at 16
	// events and double up to 512, so the short runs of interleaving
	// exploration pay for about what they record while long traces
	// amortize to full-size chunks. Untraced runs never touch it (emit
	// elides the Event entirely).
	events arena.Chunks[trace.Event]
	// stacks interns the call stacks events record (Options.Stacks, or
	// the machine's own table, made on the first traced event).
	stacks *StackTable
	// privateStacks makes emit copy the stack per event instead of
	// interning it: the pre-table behaviour, kept as the tests' oracle.
	privateStacks bool
	// dec holds the decoder's buffers, made on the machine's first decode.
	dec *decoder
	// walk, set only by the package's tests, runs the entry function,
	// threads and all, on the tree-walking reference interpreter instead.
	walk func(fn *ir.Func, args []uint64) (uint64, error)

	// ops counts executed instructions per opcode. A dense array indexed
	// by ir.Op keeps the dispatch-loop cost to one increment; RecordObs
	// publishes it once per run.
	ops [ir.NumOps]int64
}

type frame struct {
	fn   *ir.Func
	code *code // fn's decoded body (nil on the reference interpreter)
	// regs is the dense register file: parameters first, then
	// result-producing instructions, indexed by ir's Renumber slots,
	// then the decoded body's global addresses and constants.
	regs []uint64
	// cur is the active instruction, for stack traces. The dispatch loop
	// sets it only before what may read it: faults, events, announcements and
	// calls.
	cur *ir.Instr
	// outer is the interned stack of the frame's callers, nil until
	// internStack fills it on the first event recorded at or below this
	// frame (a bottom frame's stays nil: it has no callers).
	outer []trace.Frame

	// pc is the dispatch loop's op index, saved while the frame is not
	// running: the op to resume at when its callee returns (just after
	// the call op, whose dst takes the result) or when its thread is
	// chosen again.
	pc int32

	// Stack allocation bookkeeping: allocas carve from
	// [stackTop-stackUsed, stackTop); storage is reclaimed on return.
	stackTop  uint64
	stackUsed uint64
}

func (f *frame) stackLow() uint64 { return f.stackTop - f.stackUsed }

// getFrame recycles call frames, sized for n registers: register slots
// need no clearing because well-formed IR defines every value before its
// first use.
func (m *Machine) getFrame(fn *ir.Func, n int) *frame {
	var f *frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame{}
	}
	f.fn = fn
	f.code = nil
	f.cur = nil
	f.outer = nil
	f.stackTop = 0
	f.stackUsed = 0
	if cap(f.regs) >= n {
		f.regs = f.regs[:n]
	} else {
		f.regs = make([]uint64, n)
	}
	return f
}

// RuntimeError is an execution fault with the simulated call stack.
type RuntimeError struct {
	Msg   string
	Stack []trace.Frame
}

func (e *RuntimeError) Error() string {
	s := "interp: " + e.Msg
	for _, f := range e.Stack {
		s += "\n\tat " + f.String()
	}
	return s
}

// New prepares a machine for mod: it allocates the machine, then Reset
// lays out globals and seeds PM initializers as durable content.
func New(mod *ir.Module, opts Options) (*Machine, error) {
	if _, err := layoutGlobals(mod, nil); err != nil {
		return nil, err
	}
	m := &Machine{
		Mod:    mod,
		cost:   pmem.DefaultCostModel(),
		events: arena.New[trace.Event](16, 512),
	}
	if err := m.Reset(opts); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset readies the machine for a new run of its module under opts,
// exactly as New would, so that a finished machine can record another
// run into the buffers the last one finished with: the trace-event arena,
// the decision log and its Runnable arena, the thread records, the frame
// pool, the PM event log, the per-thread counters, the PM globals' seed
// images, the decoder and argument scratch, and the simulated memory. The
// run gets opts.Memory, which is never reset, or else the memory the
// machine made for itself, rewound to read as a fresh one (pages a
// snapshot of it shares are dropped, not zeroed, so the snapshot keeps
// its bytes). The tracker is the detector's, reset by the detector (it
// recycles only store records no crash state holds), or a fresh one.
//
// Everything the last run handed out that lives in those buffers is
// invalid afterwards: its trace's events, its Decisions, its PMEventLog
// and m.Mem. A caller that keeps a result must copy it first (as a
// pmcheck.VerdictTable copies the events it holds). On error the machine
// must not run.
func (m *Machine) Reset(opts Options) error {
	mod := m.Mod
	m.Track, m.det = nil, nil
	switch {
	case opts.Detector != nil:
		if opts.NoTrack {
			return fmt.Errorf("interp: Options.Detector and NoTrack are exclusive")
		}
		if opts.Trace == nil || len(opts.Trace.Events) > 0 {
			return fmt.Errorf("interp: Options.Detector needs an empty Trace to record into")
		}
		opts.Detector.Reset(opts.Trace)
		m.det = opts.Detector
		m.Track = m.det.Tracker()
	case !opts.NoTrack:
		m.Track = pmem.NewTracker()
	}
	m.opts = opts
	m.Clock.Reset()
	if cap(m.globals) >= len(mod.Globals) {
		m.globals = m.globals[:len(mod.Globals)]
	} else {
		m.globals = make([]uint64, len(mod.Globals))
	}
	m.heapNext = pmem.HeapBase
	m.rootAddr, m.rootSize = 0, 0
	if m.mt != nil {
		// Keep the scheduler state for its buffers; the run brings it back
		// on its first spawn.
		m.mt.pending.Rewind()
		m.idle, m.mt = m.mt, nil
	}
	m.frames = m.frames[:0]
	m.stackBase = pmem.StackBase
	m.stackLimit = pmem.StackBase - pmem.StackMax
	m.threadEv = m.threadEv[:0]
	m.seq, m.steps = 0, 0
	m.checkpoints, m.violations = 0, 0
	m.pmEventLog = m.pmEventLog[:0]
	m.events.Rewind()
	m.stacks = opts.Stacks
	m.ops = [ir.NumOps]int64{}
	m.max = opts.StepLimit
	if m.max == 0 {
		m.max = DefaultStepLimit
	}
	m.deadline = opts.Deadline
	m.hasDeadline = !opts.Deadline.IsZero()
	m.checkAt = m.nextCheck()
	switch {
	case opts.Memory != nil:
		m.Mem = opts.Memory
	case m.ownMem != nil:
		m.ownMem.Reset()
		m.Mem = m.ownMem
	default:
		m.ownMem = pmem.NewMemory()
		m.Mem = m.ownMem
	}

	// The interpreter addresses values by their dense Renumber slots;
	// normalize any function mutated (or never numbered) since its last
	// Renumber. Clean modules see no writes here, so independent machines
	// may share them across goroutines.
	for _, f := range mod.Funcs {
		if !f.IsDecl() && f.NeedsRenumber() {
			f.Renumber()
		}
	}

	pmNext, err := layoutGlobals(mod, m.globals)
	if err != nil {
		return err
	}
	for gi, g := range mod.Globals {
		addr, size := m.globals[gi], uint64(g.Elem.Size())
		if g.PM {
			// Announce the persistent region to the trace (bug finders
			// know registered pools; Trace-AA consumes these events).
			m.emit(nil, trace.Event{Kind: trace.KindAlloc, Addr: addr, Size: int(size), Sym: g.Name})
		}
		if g.PM && opts.ResumePM {
			// A restart: PM contents come from the supplied image.
			continue
		}
		if len(g.Init) > 0 {
			m.Mem.Write(addr, g.Init)
		}
		if g.PM && m.Track != nil {
			// Pre-existing PM content is durable by definition.
			if len(m.pmSeeds) != len(mod.Globals) {
				m.pmSeeds = pmSeedsOf(mod)
			}
			m.Track.SeedDurable(addr, m.pmSeeds[gi])
		}
	}
	m.pmNext = alignUp(pmNext, pmem.LineSize)
	if opts.ResumePM {
		// The allocator cursor survives in its reserved metadata line.
		if cur := m.Mem.ReadUint(pmem.PMBase, 8); cur != 0 {
			m.pmNext = cur
		}
	} else {
		m.Mem.WriteUint(pmem.PMBase, 8, m.pmNext)
	}
	return nil
}

// LayoutError rejects a module with a global that does not fit the
// region it is laid out in: persistent globals must end within the PM
// range (PMBase+DefaultPMSize, the bound pm_alloc applies), volatile
// ones before the heap (HeapBase).
type LayoutError struct {
	Global string
	// Size is the global's declared size in bytes (negative when its
	// type's size is).
	Size int64
	PM   bool
}

func (e *LayoutError) Error() string {
	region := "volatile globals end at the heap"
	if e.PM {
		region = "persistent memory is exhausted"
	}
	return fmt.Sprintf("interp: global @%s (%d bytes) does not fit: %s", e.Global, e.Size, region)
}

// layoutGlobals lays out mod's globals: volatile ones from GlobalBase,
// persistent ones from PMBase (after one reserved allocator-metadata
// line). It stores each global's address in addrs, when non-nil, and
// returns where the persistent globals end. A global that does not fit
// its region is a *LayoutError.
func layoutGlobals(mod *ir.Module, addrs []uint64) (uint64, error) {
	volNext := uint64(pmem.GlobalBase)
	pmNext := uint64(pmem.PMBase) + pmem.LineSize
	for gi, g := range mod.Globals {
		size := g.Elem.Size()
		align := uint64(g.Elem.Align())
		next, end := &volNext, uint64(pmem.HeapBase)
		if g.PM {
			next, end = &pmNext, pmem.PMBase+pmem.DefaultPMSize
			// PM objects are cache-line aligned (as PMDK allocates),
			// so a single object never shares a line with another.
			align = max(align, pmem.LineSize)
		}
		addr := alignUp(*next, align)
		if size < 0 || addr > end || uint64(size) > end-addr {
			return 0, &LayoutError{Global: g.Name, Size: size, PM: g.PM}
		}
		*next = addr + uint64(size)
		if addrs != nil {
			addrs[gi] = addr
		}
	}
	return pmNext, nil
}

// pmSeedsOf builds Machine.pmSeeds for mod.
func pmSeedsOf(mod *ir.Module) [][]byte {
	seeds := make([][]byte, len(mod.Globals))
	for gi, g := range mod.Globals {
		if g.PM {
			seeds[gi] = make([]byte, g.Elem.Size())
			copy(seeds[gi], g.Init)
		}
	}
	return seeds
}

func alignUp(n, a uint64) uint64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// GlobalAddr returns the simulated address of a global.
func (m *Machine) GlobalAddr(name string) uint64 {
	a, ok := m.globalAddrOf(name)
	if !ok {
		panic("interp: unknown global @" + name)
	}
	return a
}

// globalAddrOf returns the address of the global named name, laid out
// by New.
func (m *Machine) globalAddrOf(name string) (uint64, bool) {
	for i, g := range m.Mod.Globals[:len(m.globals)] {
		if g.Name == name {
			return m.globals[i], true
		}
	}
	return 0, false
}

// Run executes the named entry function with integer/pointer arguments and
// returns its result. The end of the entry function is an implicit
// durability point: like pmemcheck, every PM store must be durable when
// the program exits.
func (m *Machine) Run(entry string, args ...uint64) (uint64, error) {
	fn := m.Mod.Func(entry)
	if fn == nil {
		return 0, fmt.Errorf("interp: no entry function @%s", entry)
	}
	if fn.IsDecl() {
		return 0, fmt.Errorf("interp: entry @%s is a declaration", entry)
	}
	if len(args) != len(fn.Params) {
		return 0, fmt.Errorf("interp: entry @%s takes %d arguments, got %d", entry, len(fn.Params), len(args))
	}
	var ret uint64
	var err error
	if m.walk != nil {
		ret, err = m.walk(fn, args)
	} else {
		copy(m.pushCall(fn).regs, args)
		ret, err = m.run()
	}
	if err == nil && m.mt != nil {
		// pthread semantics without detach: every spawned thread must be
		// joined (or at least have finished) before main returns.
		for _, t := range m.mt.threads[1:] {
			if t.state != thDone {
				err = &RuntimeError{Msg: fmt.Sprintf("main returned with thread %d still running", t.tid)}
				break
			}
		}
	}
	// Drop the frame stacks still parked (error paths and unjoined
	// threads); a clean run has none.
	if m.mt != nil {
		for _, t := range m.mt.threads {
			t.frames = nil
		}
		m.mt.cur = 0
	}
	m.frames = m.frames[:0]
	if err != nil {
		return 0, err
	}
	// Implicit final durability point.
	if err := m.checkpoint(nil); err != nil {
		return 0, err
	}
	return ret, nil
}

// CrashImage builds a possible post-crash PM image: the durable bytes,
// plus the pending stores chosen by keep (any subset may have been evicted
// to PM before the crash), plus the allocator's reserved metadata line
// (which the simulated hardware keeps consistent on its own). Pass the
// image to a new Machine with Options{Memory: img, ResumePM: true} to run
// recovery code against it.
func (m *Machine) CrashImage(keep func(*pmem.TrackedStore) bool) *pmem.Memory {
	if keep == nil {
		keep = func(*pmem.TrackedStore) bool { return false }
	}
	img := m.Track.CrashImage(keep)
	return m.stampMeta(img)
}

// CaptureCrashState snapshots the machine's current durability state —
// the copy-on-write durable image, the pending lines, and the allocator
// metadata line — for deferred crash-image construction. Capturing at a
// PM event boundary (from an Options.OnPMEvent hook) yields exactly the
// state a run crashed at that boundary would hold, at the cost of a
// page-map copy instead of a whole re-execution.
func (m *Machine) CaptureCrashState() *pmem.CrashState {
	cs := m.Track.CaptureCrashState()
	meta := make([]byte, pmem.LineSize)
	m.Mem.Read(pmem.PMBase, meta)
	cs.Meta = meta
	return cs
}

// stampMeta copies the allocator's reserved metadata line into a crash
// image (the simulated hardware keeps it consistent on its own).
func (m *Machine) stampMeta(img *pmem.Memory) *pmem.Memory {
	meta := make([]byte, pmem.LineSize)
	m.Mem.Read(pmem.PMBase, meta)
	img.Write(pmem.PMBase, meta)
	return img
}

// SimTime returns the simulated nanoseconds elapsed so far.
func (m *Machine) SimTime() float64 { return m.Clock.Nanoseconds() }

// Steps returns the number of executed instructions.
func (m *Machine) Steps() int64 { return m.steps }

func (m *Machine) fault(format string, args ...any) error {
	return &RuntimeError{Msg: fmt.Sprintf(format, args...), Stack: m.stack(nil)}
}

// stack builds the current call stack, innermost first, as a private
// allocation (error paths; traced events use internStack). When in is
// non-nil it is the active instruction of the top frame.
func (m *Machine) stack(in *ir.Instr) []trace.Frame {
	out := make([]trace.Frame, len(m.frames))
	m.fillStack(out, in)
	return out
}

// emit advances the global PM event sequence and returns the assigned
// number. When tracing is on, it also records the event with the current
// call stack, interned in the machine's stack table (in is the active
// instruction of the top frame; nil for machine-setup events). Untraced
// runs pay only the increment: no Event or stack is materialized.
func (m *Machine) emit(in *ir.Instr, e trace.Event) int {
	seq := m.seq
	m.seq++
	tr := m.opts.Trace
	if tr == nil {
		return seq
	}
	ev := &m.events.Take(1)[0]
	*ev = e
	ev.Seq = seq
	ev.Tid = m.curTid()
	if m.privateStacks {
		if len(m.frames) > 0 {
			ev.Stack = m.stack(in)
		}
	} else {
		ev.Stack = m.internStack(in)
	}
	tr.Events = append(tr.Events, ev)
	return seq
}

// fillStack writes the call stack, innermost first, into out (length
// len(m.frames)). When in is non-nil it is the active instruction of the
// top frame.
func (m *Machine) fillStack(out []trace.Frame, in *ir.Instr) {
	top := len(m.frames) - 1
	for i := top; i >= 0; i-- {
		f := m.frames[i]
		cur := f.cur
		if i == top && in != nil {
			cur = in
		}
		out[top-i] = frameAt(f.fn, cur)
	}
}

func (m *Machine) checkpoint(in *ir.Instr) error {
	if err := m.announce(PendingOp{Kind: PendCheckpoint}); err != nil {
		return err
	}
	seq := m.emit(in, trace.Event{Kind: trace.KindCheckpoint})
	if m.Track != nil {
		m.violations += m.Track.NumPending()
	}
	if m.det != nil {
		m.det.Checkpoint(seq)
	}
	m.checkpoints++
	return m.pmEvent(EvCheckpoint)
}

// Checkpoints returns the number of durability points passed so far.
func (m *Machine) Checkpoints() int { return m.checkpoints }

// NumViolations returns the durability violations observed online so far:
// the stores found non-durable, summed over the durability points passed
// (a store pending at two points counts twice). It is 0 when tracking is
// off. Options.Detector reports the violations themselves.
func (m *Machine) NumViolations() int { return m.violations }

// pmEvent logs one PM event boundary and fires Options.OnPMEvent.
// Callers invoke it after applying the event's tracker effect, so the
// hook (and a crash it simulates) observes the post-event durability
// state.
func (m *Machine) pmEvent(k PMEventKind) error {
	m.pmEventLog = append(m.pmEventLog, k)
	if tid := m.curTid(); tid < len(m.threadEv) {
		m.threadEv[tid][k]++
	} else {
		for len(m.threadEv) <= tid {
			m.threadEv = append(m.threadEv, [numPMEventKinds]int64{})
		}
		m.threadEv[tid][k]++
	}
	if m.opts.OnPMEvent != nil {
		return m.opts.OnPMEvent(len(m.pmEventLog), k)
	}
	return nil
}

// PMEventLog returns the kind of every PM event boundary passed so far,
// in order (nil before the first). Entry i is OnPMEvent's k = i+1. The
// slice is the machine's own log: callers must not mutate it, and it is
// valid until the machine is Reset.
func (m *Machine) PMEventLog() []PMEventKind {
	if len(m.pmEventLog) == 0 {
		return nil
	}
	return m.pmEventLog
}

// pushCall pushes a frame for fn's decoded body onto the running
// thread's stack, with fn's globals and constants in their registers,
// and charges the call. The caller fills in the parameters.
func (m *Machine) pushCall(fn *ir.Func) *frame {
	c := m.codeOf(fn)
	f := m.pushFrame(fn, c.nregs)
	f.code = c
	f.pc = 0
	regs := f.regs
	g := regs[c.nslots : c.nslots+len(c.globals)]
	for i, gi := range c.globals {
		g[i] = m.globals[gi]
	}
	copy(regs[c.nslots+len(c.globals):], c.consts)
	m.Clock.Advance(m.cost.Call)
	return f
}

// pushFrame makes a frame of n registers for fn on top of the running
// thread's stack.
func (m *Machine) pushFrame(fn *ir.Func, n int) *frame {
	f := m.getFrame(fn, n)
	if len(m.frames) == 0 {
		f.stackTop = m.stackBase
	} else {
		f.stackTop = m.frames[len(m.frames)-1].stackLow()
	}
	m.frames = append(m.frames, f)
	return f
}

// popFrame removes the top frame f and recycles it.
func (m *Machine) popFrame(f *frame) {
	m.frames = m.frames[:len(m.frames)-1]
	m.framePool = append(m.framePool, f)
}

// top returns the running thread's top frame and the dispatch position
// saved in it.
func (m *Machine) top() (f *frame, ops []op, regs []uint64, pc int32) {
	f = m.frames[len(m.frames)-1]
	return f, f.code.ops, f.regs, f.pc
}

// switchIn readies the thread an announcement or a thread exit just
// installed and returns its top(). A thread scheduled for the first time
// gets its entry frame. A parked thread re-runs the op it announced,
// whose step is uncounted here because the op counted it when it first
// ran.
func (m *Machine) switchIn() (*frame, []op, []uint64, int32) {
	if len(m.frames) == 0 {
		t := m.mt.threads[m.mt.cur]
		copy(m.pushCall(t.fn).regs, t.args)
	} else {
		f := m.frames[len(m.frames)-1]
		m.steps--
		m.ops[f.code.ops[f.pc].iop]--
	}
	return m.top()
}

// run executes the running thread from its top frame's saved op, and
// every thread the scheduler switches to after it, until main's entry
// function returns. A call, a return or a thread switch saves the
// loop's position in the frame it leaves and reloads the position of
// the frame it enters, so simulated calls never recurse on the Go
// stack.
//
// Only the ops that may fault, announce, record an event or call set
// f.cur, the frame's active instruction: nothing reads it anywhere
// else.
func (m *Machine) run() (uint64, error) {
	f, ops, regs, pc := m.top()
	for {
		o := &ops[pc]
		pc++
		m.steps++
		m.ops[o.iop]++
		if m.steps >= m.checkAt {
			if err := m.checkLimits(o.in); err != nil {
				return 0, err
			}
		}
		switch o.code {
		case opLoad:
			addr := regs[o.a]
			if pmem.RegionOf(addr) == pmem.RegionInvalid {
				f.cur = o.in
				return 0, m.accessFault("load", uint64(o.x), addr)
			}
			regs[o.dst] = m.Mem.ReadUint(addr, int(o.x)) & o.mask()
			m.loadCost(addr)
		case opStore:
			if err := m.store(f, o, regs[o.a], regs[o.b]); err != nil {
				if err != errSwitch {
					return 0, err
				}
				f.pc = pc - 1
				f, ops, regs, pc = m.switchIn()
			}
		case opPtrAdd:
			regs[o.dst] = regs[o.a] + regs[o.b]*uint64(int64(o.c)) + uint64(int64(o.x))
			m.Clock.Advance(m.cost.ALUOp)
		case opPtrAddR:
			regs[o.dst] = regs[o.a] + regs[o.b]*regs[o.c] + regs[o.x]
			m.Clock.Advance(m.cost.ALUOp)
		case opAdd:
			regs[o.dst] = (regs[o.a] + regs[o.b]) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opSub:
			regs[o.dst] = (regs[o.a] - regs[o.b]) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opMul:
			regs[o.dst] = (regs[o.a] * regs[o.b]) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opSDiv, opSRem:
			x, y := int64(regs[o.a]), int64(regs[o.b])
			if y == 0 {
				f.cur = o.in
				if o.code == opSDiv {
					return 0, m.fault("division by zero")
				}
				return 0, m.fault("remainder by zero")
			}
			if o.code == opSDiv {
				regs[o.dst] = uint64(x/y) & o.mask()
			} else {
				regs[o.dst] = uint64(x%y) & o.mask()
			}
			m.Clock.Advance(m.cost.ALUOp)
		case opAnd:
			regs[o.dst] = regs[o.a] & regs[o.b] & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opOr:
			regs[o.dst] = (regs[o.a] | regs[o.b]) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opXor:
			regs[o.dst] = (regs[o.a] ^ regs[o.b]) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opShl:
			regs[o.dst] = (regs[o.a] << (regs[o.b] & 63)) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opAShr:
			regs[o.dst] = uint64(int64(regs[o.a])>>(regs[o.b]&63)) & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opEq:
			regs[o.dst] = boolVal(regs[o.a] == regs[o.b])
			m.Clock.Advance(m.cost.ALUOp)
		case opNe:
			regs[o.dst] = boolVal(regs[o.a] != regs[o.b])
			m.Clock.Advance(m.cost.ALUOp)
		case opLt:
			regs[o.dst] = boolVal(int64(regs[o.a]) < int64(regs[o.b]))
			m.Clock.Advance(m.cost.ALUOp)
		case opLe:
			regs[o.dst] = boolVal(int64(regs[o.a]) <= int64(regs[o.b]))
			m.Clock.Advance(m.cost.ALUOp)
		case opGt:
			regs[o.dst] = boolVal(int64(regs[o.a]) > int64(regs[o.b]))
			m.Clock.Advance(m.cost.ALUOp)
		case opGe:
			regs[o.dst] = boolVal(int64(regs[o.a]) >= int64(regs[o.b]))
			m.Clock.Advance(m.cost.ALUOp)
		case opCast:
			regs[o.dst] = regs[o.a] & o.mask()
			m.Clock.Advance(m.cost.ALUOp)
		case opCall:
			f.cur = o.in
			cs := &f.code.sites[o.x]
			args := m.siteArgs(f.code, cs, regs)
			if !cs.callee.IsDecl() {
				if len(m.frames) >= 10_000 {
					return 0, m.fault("stack overflow calling @%s", cs.callee.Name)
				}
				f.pc = pc
				copy(m.pushCall(cs.callee).regs, args)
				f, ops, regs, pc = m.top()
				break
			}
			if cs.bi == nil {
				return 0, m.fault("call to unregistered external @%s", cs.callee.Name)
			}
			ret, err := cs.bi(m, args)
			if err != nil {
				if err != errSwitch {
					return 0, err
				}
				f.pc = pc - 1
				f, ops, regs, pc = m.switchIn()
				break
			}
			if o.dst >= 0 {
				regs[o.dst] = ret
			}
		case opBr:
			m.Clock.Advance(m.cost.ALUOp)
			if regs[o.a] != 0 {
				pc = o.b
			} else {
				pc = o.c
			}
		case opJmp:
			pc = o.b
		case opRet:
			v := regs[o.a]
			m.popFrame(f)
			if n := len(m.frames); n > 0 {
				f, ops, regs, pc = m.top()
				if dst := ops[pc-1].dst; dst >= 0 {
					regs[dst] = v
				}
				break
			}
			if m.curTid() == 0 {
				return v, nil
			}
			if err := m.exitThread(v); err != nil {
				return 0, err
			}
			f, ops, regs, pc = m.switchIn()
		case opAlloca:
			addr := m.allocStack(regs[o.x])
			if addr == 0 {
				f.cur = o.in
				return 0, m.fault("stack overflow in alloca")
			}
			regs[o.dst] = addr
			m.Clock.Advance(m.cost.ALUOp)
		default:
			f.cur = o.in
			if err := m.exec(f, o); err != nil {
				if err != errSwitch {
					return 0, err
				}
				f.pc = pc - 1
				f, ops, regs, pc = m.switchIn()
			}
		}
	}
}

// checkLimits runs when the step count reaches checkAt: it enforces the
// step budget and, every 8,192 steps, the wall-clock deadline, then sets
// the next step to check at. in is the instruction about to execute.
func (m *Machine) checkLimits(in *ir.Instr) error {
	if m.steps > m.max {
		return &LimitError{Resource: "steps", Steps: m.steps, Limit: m.max, Stack: m.stack(in)}
	}
	if m.hasDeadline && m.steps&8191 == 0 && time.Now().After(m.deadline) {
		return &LimitError{Resource: "deadline", Steps: m.steps, Stack: m.stack(in)}
	}
	m.checkAt = m.nextCheck()
	return nil
}

// nextCheck is the first step after the current one at which a limit
// can fire: past the step budget, or the next deadline poll.
func (m *Machine) nextCheck() int64 {
	at := m.max
	if at < math.MaxInt64 {
		at++
	}
	if m.hasDeadline {
		if d := (m.steps | 8191) + 1; d < at {
			at = d
		}
	}
	return at
}

// siteArgs gathers call site cs's arguments from the caller's
// registers regs into the machine's argument buffer. An interpreted
// callee copies them into its frame at once; a builtin reads them before
// it announces, and if another thread goes first it re-runs from the
// call, so the buffer is free again at every thread switch.
func (m *Machine) siteArgs(c *code, cs *callSite, regs []uint64) []uint64 {
	args := m.args[:0]
	for _, r := range c.args[cs.off : cs.off+cs.n] {
		args = append(args, regs[r])
	}
	m.args = args
	return args
}

func (m *Machine) accessFault(op string, size, addr uint64) error {
	return m.fault("invalid %s of %d bytes at %#x", op, int64(size), addr)
}

// loadCost charges a load from addr.
func (m *Machine) loadCost(addr uint64) {
	if pmem.IsPM(addr) {
		m.Clock.Advance(m.cost.LoadPM)
	} else {
		m.Clock.Advance(m.cost.LoadDRAM)
	}
}

// store runs a store or ntstore of val to addr.
func (m *Machine) store(f *frame, o *op, val, addr uint64) error {
	size := uint64(o.x)
	if pmem.RegionOf(addr) == pmem.RegionInvalid {
		f.cur = o.in
		return m.accessFault("store", size, addr)
	}
	if !pmem.IsPM(addr) {
		m.Mem.WriteUint(addr, int(size), val)
		m.Clock.Advance(m.cost.StoreDRAM)
		return nil
	}
	f.cur = o.in
	nt := o.flags&flagNT != 0
	pend, kind, ev := PendStore, trace.KindStore, EvStore
	if nt {
		pend, kind, ev = PendNTStore, trace.KindNTStore, EvNTStore
	}
	if err := m.announce(PendingOp{Kind: pend, Addr: addr}); err != nil {
		return err
	}
	m.Mem.WriteUint(addr, int(size), val)
	// The payload is the bytes just written: val, little-endian. IR
	// scalars are at most 8 bytes, so it fits a stack buffer; the tracker
	// makes its own durable copy.
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	data := buf[:size]
	e := trace.Event{Kind: kind, Addr: addr, Size: int(size)}
	if size == 8 && pmem.IsPM(val) {
		// The stored value names a PM location: record it so the
		// offline detector can replay pointer publications.
		e.Val = val
	}
	seq := m.emit(o.in, e)
	m.trackStore(seq, addr, data, nt)
	m.Clock.Advance(m.cost.StorePM)
	return m.pmEvent(ev)
}

// exec runs the ops the dispatch loop leaves out: flushes, fences,
// threads, atomics and what cannot execute. f.cur is o.in. An op that
// announces has no effect before its announcement, except a PM flush's
// issue latency, which it charges once.
func (m *Machine) exec(f *frame, o *op) error {
	regs := f.regs
	in := o.in
	switch o.code {
	case opFlush:
		addr := regs[o.a]
		if !m.resuming() {
			m.Clock.Advance(m.cost.Flush)
		}
		if pmem.IsPM(addr) {
			ordered := o.flags&flagOrdered != 0
			if err := m.announce(PendingOp{Kind: PendFlush, Addr: addr, Ordered: ordered}); err != nil {
				return err
			}
			seq := m.emit(in, trace.Event{Kind: trace.KindFlush, FlushK: in.FlushK, Addr: addr})
			moved := m.trackFlush(seq, ordered, addr)
			if moved > 0 && ordered {
				// CLFLUSH commits immediately; CLWB/CLFLUSHOPT park the
				// line in the write-pending queue and pay at the fence.
				m.Clock.Advance(m.cost.FlushWriteback)
			}
			if err := m.pmEvent(EvFlush); err != nil {
				return err
			}
		}
		// Flushing volatile memory costs flush latency but has no
		// durability effect — this is the waste the hoisting heuristic
		// exists to avoid (§3.2).

	case opFence:
		if err := m.announce(PendingOp{Kind: PendFence}); err != nil {
			return err
		}
		seq := m.emit(in, trace.Event{Kind: trace.KindFence, FenceK: in.FenceK})
		drained := m.trackFence(seq)
		m.Clock.Advance(m.cost.FenceBase + float64(drained)*m.cost.FenceDrainPerLine)
		if err := m.pmEvent(EvFence); err != nil {
			return err
		}

	case opSpawn:
		m.ensureMT()
		if err := m.announce(PendingOp{Kind: PendSpawn}); err != nil {
			return err
		}
		// The thread keeps its arguments, so they get their own slice.
		cs := &f.code.sites[o.x]
		args := make([]uint64, cs.n)
		for i, r := range f.code.args[cs.off : cs.off+cs.n] {
			args[i] = regs[r]
		}
		tid, err := m.spawnThread(cs.callee, args)
		if err != nil {
			return err
		}
		regs[o.dst] = uint64(tid)
		m.Clock.Advance(m.cost.Call)

	case opJoin:
		ret, err := m.join(regs[o.a])
		if err != nil {
			return err
		}
		regs[o.dst] = ret

	case opAtomicLoad:
		addr := regs[o.a]
		if pmem.RegionOf(addr) == pmem.RegionInvalid {
			return m.accessFault("atomic load", 8, addr)
		}
		if err := m.announce(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		regs[o.dst] = m.Mem.ReadUint(addr, 8)
		m.loadCost(addr)

	case opAtomicStore:
		val, addr := regs[o.a], regs[o.b]
		if pmem.RegionOf(addr) == pmem.RegionInvalid {
			return m.accessFault("atomic store", 8, addr)
		}
		if err := m.announce(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		return m.atomicWrite(in, addr, val)

	case opAtomicRMW:
		operand, addr := regs[o.a], regs[o.b]
		if pmem.RegionOf(addr) == pmem.RegionInvalid {
			return m.accessFault("atomic rmw", 8, addr)
		}
		if err := m.announce(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		old := m.Mem.ReadUint(addr, 8)
		var nv uint64
		switch in.RMWK {
		case ir.RMWAdd:
			nv = old + operand
		case ir.RMWXchg:
			nv = operand
		default:
			return m.fault("bad rmw kind %d", int(in.RMWK))
		}
		if err := m.atomicWrite(in, addr, nv); err != nil {
			return err
		}
		regs[o.dst] = old

	case opAtomicCAS:
		expect, nv, addr := regs[o.a], regs[o.b], regs[o.c]
		if pmem.RegionOf(addr) == pmem.RegionInvalid {
			return m.accessFault("atomic cas", 8, addr)
		}
		if err := m.announce(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		old := m.Mem.ReadUint(addr, 8)
		if old == expect {
			if err := m.atomicWrite(in, addr, nv); err != nil {
				return err
			}
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}
		regs[o.dst] = old

	default:
		if in == nil {
			return m.fault("@%s is malformed: block ^%s is empty, lacks a terminator or has one mid-block", f.fn.Name, f.fn.Blocks[o.a].Name)
		}
		return m.fault("cannot execute %s", ir.FormatInstr(in))
	}
	return nil
}

// atomicWrite commits the write half of an atomic store/RMW/CAS.
// Atomicity orders visibility between threads; it persists nothing, so
// an atomic store to PM is a tracked pending store exactly like a
// regular one and still needs its flush and fence.
func (m *Machine) atomicWrite(in *ir.Instr, addr, val uint64) error {
	m.Mem.WriteUint(addr, 8, val)
	if !pmem.IsPM(addr) {
		m.Clock.Advance(m.cost.StoreDRAM)
		return nil
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	data := buf[:]
	e := trace.Event{Kind: trace.KindStore, Addr: addr, Size: 8}
	if pmem.IsPM(val) {
		e.Val = val
	}
	seq := m.emit(in, e)
	m.trackStore(seq, addr, data, false)
	m.Clock.Advance(m.cost.StorePM)
	return m.pmEvent(EvStore)
}

// trackStore applies PM store event seq (data at addr, by the running
// thread) to the durability state: through the detector when the run has
// one, else to the tracker, if any.
func (m *Machine) trackStore(seq int, addr uint64, data []byte, nt bool) {
	if m.det != nil {
		m.det.Store(seq, data)
	} else if m.Track != nil {
		m.Track.Store(seq, m.curTid(), addr, data, nt, true)
	}
}

// trackFlush applies flush event seq and returns the stores it moved.
func (m *Machine) trackFlush(seq int, ordered bool, addr uint64) int {
	if m.det != nil {
		return m.det.Flush(seq)
	}
	if m.Track != nil {
		return m.Track.Flush(seq, m.curTid(), ordered, addr)
	}
	return 0
}

// trackFence applies fence event seq and returns the lines it drained.
func (m *Machine) trackFence(seq int) int {
	if m.det != nil {
		return m.det.Fence(seq)
	}
	if m.Track != nil {
		return m.Track.Fence(seq, m.curTid())
	}
	return 0
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// allocStack carves size bytes from the downward-growing stack, returning
// 0 on overflow. Stack storage is reclaimed per call frame; each frame's
// stackTop was fixed at call time from its parent's watermark.
func (m *Machine) allocStack(size uint64) uint64 {
	f := m.frames[len(m.frames)-1]
	top := f.stackTop - f.stackUsed
	addr := (top - size) &^ 15
	if addr < m.stackLimit || addr > top {
		return 0 // exhausted (or wrapped below zero)
	}
	f.stackUsed = f.stackTop - addr
	return addr
}
