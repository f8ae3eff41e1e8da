// Package interp executes IR modules on the simulated persistent-memory
// machine (internal/pmem). It plays the role that native execution under
// pmemcheck/Valgrind plays in the paper: it runs the program, applies the
// durability state machine to every PM operation, accumulates simulated
// time from the cost model, and (optionally) records the pmemcheck-style
// event trace that the bug detector and the fixer consume.
package interp

import (
	"fmt"
	"io"
	"time"

	"hippocrates/internal/arena"
	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// Options configures a Machine.
type Options struct {
	// Cost is the latency model; nil selects pmem.DefaultCostModel.
	Cost *pmem.CostModel
	// Trace, when non-nil, receives every PM event.
	Trace *trace.Trace
	// Stdout receives output from the print builtins; nil discards it.
	Stdout io.Writer
	// StepLimit bounds executed instructions (0 means the 100M default).
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
	// CrashAtCheckpoint, when positive, aborts execution with
	// ErrSimulatedCrash at the Nth durability point (1-based). The
	// machine's tracker then holds the exact durability state at the
	// crash, ready for CrashImage — the Yat-style exhaustive
	// crash-testing hook.
	CrashAtCheckpoint int
	// CrashAtEvent, when positive, aborts execution with
	// ErrSimulatedCrash immediately after the Nth PM event boundary
	// (1-based over stores, NT-stores, flushes, fences, and durability
	// points — the numbering PMEventLog reports). The event's tracker
	// effect has already been applied when the crash fires, so the
	// machine holds the exact durability state an eviction-order
	// enumerator needs (see internal/crashsim).
	CrashAtEvent int
	// OnPMEvent, when non-nil, is called at every PM event boundary
	// after the event's tracker effect has been applied (and before
	// CrashAtEvent is considered): k is the 1-based event index — the
	// CrashAtEvent coordinate — and kind the event's kind. Returning a
	// non-nil error aborts the run with it. The hook may capture
	// durability state (CaptureCrashState) but must not otherwise mutate
	// the machine; it lets one workload execution stand in for a
	// re-execution per crash point.
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
	// state is skipped. Crash-validation recovery boots use this: they
	// only need the entry's verdict, and the tracker's per-store records
	// are the bulk of a boot's allocation.
	NoTrack bool
}

// ErrSimulatedCrash is returned by Run when Options.CrashAtCheckpoint or
// Options.CrashAtEvent fires. The machine remains inspectable.
var ErrSimulatedCrash = fmt.Errorf("interp: simulated crash at durability point")

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

// Builtin is the signature of a registered external function.
type Builtin func(m *Machine, args []uint64) (uint64, error)

// Machine executes one module instance.
type Machine struct {
	Mod   *ir.Module
	Mem   *pmem.Memory
	Track *pmem.Tracker
	Clock pmem.Clock

	opts     Options
	cost     *pmem.CostModel
	builtins map[string]Builtin

	globalAddr map[string]uint64
	heapNext   uint64
	pmNext     uint64
	rootAddr   uint64
	rootSize   uint64

	frames    []*frame
	framePool []*frame
	// mt is the scheduler state, allocated lazily on first spawn;
	// single-threaded runs keep it nil and skip every scheduling branch.
	mt *mtState
	// stackBase/stackLimit bound the running thread's simulated stack
	// segment (the whole stack until a spawn partitions it).
	stackBase  uint64
	stackLimit uint64
	// threadEv counts PM event boundaries per thread and kind, feeding
	// the per-thread observability counters.
	threadEv    [][numPMEventKinds]int64
	seq         int
	steps       int64
	max         int64
	deadline    time.Time
	hasDeadline bool
	checkpoints int
	// violations counts the pending stores seen at durability points:
	// the online verdict. internal/pmcheck recomputes the violations
	// themselves offline from the trace.
	violations int

	// pmEventLog records the kind of every PM event boundary, one byte
	// per event; its length is the CrashAtEvent coordinate space.
	pmEventLog []PMEventKind

	// events and frameArena are the trace-recording arenas: Event records
	// and stack-frame slices are carved from chunk allocations, so a
	// traced run pays a few chunk allocations instead of two heap
	// allocations per PM event. Chunks start small (16 events, 32 frames)
	// and double up to 512 events and 1,024 frames, so the short runs of
	// interleaving exploration pay for about what they record while long
	// traces amortize to full-size chunks. Untraced runs touch neither
	// (emit elides the Event entirely).
	events     arena.Chunks[trace.Event]
	frameArena arena.Chunks[trace.Frame]

	// ops counts executed instructions per opcode. A dense array indexed
	// by ir.Op keeps the dispatch-loop cost to one increment; the map view
	// is built on demand by OpcodeCounts.
	ops [ir.NumOps]int64
}

type frame struct {
	fn *ir.Func
	// regs is the dense register file: parameters first, then
	// result-producing instructions, indexed by ir's Renumber slots.
	regs []uint64
	cur  *ir.Instr // instruction being executed (for stack traces)

	// Stack allocation bookkeeping: allocas carve from
	// [stackTop-stackUsed, stackTop); storage is reclaimed on return.
	stackTop  uint64
	stackUsed uint64
}

func (f *frame) stackLow() uint64 { return f.stackTop - f.stackUsed }

// getFrame recycles call frames: register slots need no clearing because
// well-formed IR defines every value before its first use.
func (m *Machine) getFrame(fn *ir.Func) *frame {
	var f *frame
	if n := len(m.framePool); n > 0 {
		f = m.framePool[n-1]
		m.framePool = m.framePool[:n-1]
	} else {
		f = &frame{}
	}
	f.fn = fn
	f.cur = nil
	f.stackTop = 0
	f.stackUsed = 0
	if cap(f.regs) >= fn.NumSlots() {
		f.regs = f.regs[:fn.NumSlots()]
	} else {
		f.regs = make([]uint64, fn.NumSlots())
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

// New prepares a machine: lays out globals, seeds PM initializers as
// durable content, and registers the standard builtins.
func New(mod *ir.Module, opts Options) (*Machine, error) {
	m := &Machine{
		Mod:        mod,
		opts:       opts,
		cost:       opts.Cost,
		builtins:   make(map[string]Builtin),
		globalAddr: make(map[string]uint64),
		heapNext:   pmem.HeapBase,
		max:        opts.StepLimit,
		deadline:   opts.Deadline,
		stackBase:  pmem.StackBase,
		stackLimit: pmem.StackBase - pmem.StackMax,
		events:     arena.New[trace.Event](16, 512),
		frameArena: arena.New[trace.Frame](32, 1024),
	}
	if !opts.NoTrack {
		m.Track = pmem.NewTracker()
	}
	m.hasDeadline = !opts.Deadline.IsZero()
	if m.cost == nil {
		m.cost = pmem.DefaultCostModel()
	}
	if m.max == 0 {
		m.max = 100_000_000
	}
	if opts.Memory != nil {
		m.Mem = opts.Memory
	} else {
		m.Mem = pmem.NewMemory()
	}
	registerStdBuiltins(m)

	// The interpreter addresses values by their dense Renumber slots;
	// normalize any function mutated (or never numbered) since its last
	// Renumber. Clean modules see no writes here, so independent machines
	// may share them across goroutines.
	for _, f := range mod.Funcs {
		if !f.IsDecl() && f.NeedsRenumber() {
			f.Renumber()
		}
	}

	// Lay out globals: volatile ones from GlobalBase, persistent ones
	// from PMBase (after one reserved allocator-metadata line).
	volNext := uint64(pmem.GlobalBase)
	pmNext := uint64(pmem.PMBase) + pmem.LineSize
	for _, g := range mod.Globals {
		size := uint64(g.Elem.Size())
		align := uint64(g.Elem.Align())
		if g.PM && align < pmem.LineSize {
			// PM objects are cache-line aligned (as PMDK allocates),
			// so a single object never shares a line with another.
			align = pmem.LineSize
		}
		var addr uint64
		if g.PM {
			pmNext = alignUp(pmNext, align)
			addr = pmNext
			pmNext += size
		} else {
			volNext = alignUp(volNext, align)
			addr = volNext
			volNext += size
		}
		m.globalAddr[g.Name] = addr
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
			m.Track.SeedDurable(addr, initImage(g))
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
	return m, nil
}

func initImage(g *ir.Global) []byte {
	img := make([]byte, g.Elem.Size())
	copy(img, g.Init)
	return img
}

func alignUp(n, a uint64) uint64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// RegisterBuiltin installs (or overrides) an external function handler.
func (m *Machine) RegisterBuiltin(name string, fn Builtin) { m.builtins[name] = fn }

// GlobalAddr returns the simulated address of a global.
func (m *Machine) GlobalAddr(name string) uint64 {
	a, ok := m.globalAddr[name]
	if !ok {
		panic("interp: unknown global @" + name)
	}
	return a
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
	ret, err := m.runMain(fn, args)
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
	// Tear down any threads still parked (error paths and unjoined
	// threads); a clean run has none and this is a no-op.
	m.killThreads()
	if err != nil {
		return 0, err
	}
	// Implicit final durability point.
	if err := m.checkpoint(nil); err != nil {
		return 0, err
	}
	return ret, nil
}

// runMain executes the entry function on the calling goroutine (thread
// 0) and converts a scheduler teardown unwind into the run's verdict.
func (m *Machine) runMain(fn *ir.Func, args []uint64) (ret uint64, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(killSentinel); !ok {
				panic(r)
			}
			ret, err = 0, m.mt.err
		}
	}()
	return m.call(fn, args)
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
// state a CrashAtEvent run would hold at that boundary, at the cost of a
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
// allocation (error paths; hot paths use stackFrames). When in is
// non-nil it is the active instruction of the top frame.
func (m *Machine) stack(in *ir.Instr) []trace.Frame {
	out := make([]trace.Frame, len(m.frames))
	m.fillStack(out, in)
	return out
}

// emit advances the global PM event sequence and returns the assigned
// number. When tracing is on, it also records the event with the current
// call stack (in is the active instruction of the top frame; nil for
// machine-setup events). Untraced runs pay only the increment: no Event
// or stack is materialized.
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
	ev.Stack = m.stackFrames(in)
	tr.Events = append(tr.Events, ev)
	return seq
}

// stackFrames is stack carved from the frame arena: same contents,
// amortized allocation.
func (m *Machine) stackFrames(in *ir.Instr) []trace.Frame {
	if len(m.frames) == 0 {
		return nil
	}
	out := m.frameArena.Take(len(m.frames))
	m.fillStack(out, in)
	return out
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
		fr := trace.Frame{Func: f.fn.Name}
		if cur != nil {
			fr.InstrID = cur.ID
			fr.Loc = cur.Loc
		}
		out[top-i] = fr
	}
}

func (m *Machine) checkpoint(in *ir.Instr) error {
	if err := m.yieldPM(PendCheckpoint, 0); err != nil {
		return err
	}
	m.emit(in, trace.Event{Kind: trace.KindCheckpoint})
	if m.Track != nil {
		m.violations += m.Track.NumPending()
	}
	m.checkpoints++
	if m.opts.CrashAtCheckpoint > 0 && m.checkpoints == m.opts.CrashAtCheckpoint {
		m.pmEventLog = append(m.pmEventLog, EvCheckpoint)
		return ErrSimulatedCrash
	}
	return m.pmEvent(EvCheckpoint)
}

// Checkpoints returns the number of durability points passed so far.
func (m *Machine) Checkpoints() int { return m.checkpoints }

// NumViolations returns the durability violations observed online so far:
// the stores found non-durable, summed over the durability points passed
// (a store pending at two points counts twice). It is 0 when tracking is
// off. Run internal/pmcheck on the trace for the violations themselves.
func (m *Machine) NumViolations() int { return m.violations }

// pmEvent logs one PM event boundary, fires Options.OnPMEvent, then
// Options.CrashAtEvent. Callers invoke it after applying the event's
// tracker effect, so both the hook and a simulated crash observe the
// post-event durability state.
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
		if err := m.opts.OnPMEvent(len(m.pmEventLog), k); err != nil {
			return err
		}
	}
	if m.opts.CrashAtEvent > 0 && len(m.pmEventLog) == m.opts.CrashAtEvent {
		return ErrSimulatedCrash
	}
	return nil
}

// PMEvents returns the number of PM event boundaries passed so far —
// the coordinate space Options.CrashAtEvent indexes (1-based).
func (m *Machine) PMEvents() int { return len(m.pmEventLog) }

// PMEventLog returns the kind of every PM event boundary passed so far,
// in order. Entry i corresponds to CrashAtEvent = i+1. The slice is the
// machine's own log; callers must not mutate it.
func (m *Machine) PMEventLog() []PMEventKind { return m.pmEventLog }

func (m *Machine) call(fn *ir.Func, args []uint64) (uint64, error) {
	if len(m.frames) >= 10_000 {
		return 0, m.fault("stack overflow calling @%s", fn.Name)
	}
	f := m.getFrame(fn)
	if len(m.frames) == 0 {
		f.stackTop = m.stackBase
	} else {
		f.stackTop = m.frames[len(m.frames)-1].stackLow()
	}
	copy(f.regs, args)
	m.frames = append(m.frames, f)
	defer func() {
		m.frames = m.frames[:len(m.frames)-1]
		m.framePool = append(m.framePool, f)
	}()
	m.Clock.Advance(m.cost.Call)

	blk := fn.Entry()
	for {
		var next *ir.Block
		for _, in := range blk.Instrs {
			m.steps++
			m.ops[in.Op]++
			if m.steps > m.max {
				return 0, &LimitError{Resource: "steps", Steps: m.steps, Limit: m.max, Stack: m.stack(in)}
			}
			if m.hasDeadline && m.steps&8191 == 0 && time.Now().After(m.deadline) {
				return 0, &LimitError{Resource: "deadline", Steps: m.steps, Stack: m.stack(in)}
			}
			f.cur = in
			switch in.Op {
			case ir.OpRet:
				if len(in.Args) == 0 {
					return 0, nil
				}
				return m.eval(f, in.Args[0]), nil
			case ir.OpJmp:
				next = in.Succs[0]
			case ir.OpBr:
				m.Clock.Advance(m.cost.ALUOp)
				if m.eval(f, in.Args[0]) != 0 {
					next = in.Succs[0]
				} else {
					next = in.Succs[1]
				}
			default:
				if err := m.exec(f, in); err != nil {
					return 0, err
				}
			}
		}
		if next == nil {
			return 0, m.fault("block ^%s in @%s fell through", blk.Name, fn.Name)
		}
		blk = next
	}
}

// eval computes an operand's runtime value.
func (m *Machine) eval(f *frame, v ir.Value) uint64 {
	switch x := v.(type) {
	case *ir.Instr:
		return f.regs[x.Slot]
	case *ir.Const:
		return uint64(x.Val)
	case *ir.Param:
		return f.regs[x.Index]
	case *ir.Global:
		return m.globalAddr[x.Name]
	default:
		panic(fmt.Sprintf("interp: unknown operand kind %T in @%s", v, f.fn.Name))
	}
}

func truncTo(ty ir.Type, v uint64) uint64 {
	switch ty {
	case ir.I1:
		return v & 1
	case ir.I8:
		return v & 0xff
	default:
		return v
	}
}

// exec runs one non-terminator instruction.
func (m *Machine) exec(f *frame, in *ir.Instr) error {
	switch in.Op {
	case ir.OpAlloca:
		size := alignUp(uint64(in.AllocTy.Size()), 16)
		addr := m.allocStack(size)
		if addr == 0 {
			return m.fault("stack overflow in alloca")
		}
		f.regs[in.Slot] = addr
		m.Clock.Advance(m.cost.ALUOp)

	case ir.OpLoad:
		addr := m.eval(f, in.Args[0])
		if err := m.checkAccess(addr, in.Ty.Size(), "load"); err != nil {
			return err
		}
		f.regs[in.Slot] = truncTo(in.Ty, m.Mem.ReadUint(addr, int(in.Ty.Size())))
		if pmem.IsPM(addr) {
			m.Clock.Advance(m.cost.LoadPM)
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}

	case ir.OpStore, ir.OpNTStore:
		val := m.eval(f, in.Args[0])
		addr := m.eval(f, in.Args[1])
		size := in.StoreTy.Size()
		if err := m.checkAccess(addr, size, "store"); err != nil {
			return err
		}
		if pmem.IsPM(addr) {
			pend := PendStore
			if in.Op == ir.OpNTStore {
				pend = PendNTStore
			}
			if err := m.yieldPM(pend, addr); err != nil {
				return err
			}
			m.Mem.WriteUint(addr, int(size), val)
			// IR scalars are at most 8 bytes, so the payload fits a stack
			// buffer; the tracker makes its own durable copy.
			var buf [8]byte
			data := buf[:size]
			m.Mem.Read(addr, data)
			kind := trace.KindStore
			if in.Op == ir.OpNTStore {
				kind = trace.KindNTStore
			}
			e := trace.Event{Kind: kind, Addr: addr, Size: int(size)}
			if size == 8 && pmem.IsPM(val) {
				// The stored value names a PM location: record it so the
				// offline detector can replay pointer publications.
				e.Val = val
			}
			seq := m.emit(in, e)
			ev := EvStore
			if in.Op == ir.OpNTStore {
				ev = EvNTStore
			}
			if m.Track != nil {
				if in.Op == ir.OpNTStore {
					m.Track.OnNTStoreT(seq, m.curTid(), addr, data)
				} else {
					m.Track.OnStoreT(seq, m.curTid(), addr, data)
				}
			}
			m.Clock.Advance(m.cost.StorePM)
			if err := m.pmEvent(ev); err != nil {
				return err
			}
		} else {
			m.Mem.WriteUint(addr, int(size), val)
			m.Clock.Advance(m.cost.StoreDRAM)
		}

	case ir.OpPtrAdd:
		base := m.eval(f, in.Args[0])
		idx := m.eval(f, in.Args[1])
		f.regs[in.Slot] = base + idx*uint64(in.Scale) + uint64(in.Disp)
		m.Clock.Advance(m.cost.ALUOp)

	case ir.OpCall:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.eval(f, a)
		}
		var ret uint64
		var err error
		if in.Callee.IsDecl() {
			b, ok := m.builtins[in.Callee.Name]
			if !ok {
				return m.fault("call to unregistered external @%s", in.Callee.Name)
			}
			ret, err = b(m, args)
		} else {
			ret, err = m.call(in.Callee, args)
		}
		if err != nil {
			return err
		}
		if in.HasResult() {
			f.regs[in.Slot] = ret
		}

	case ir.OpFlush:
		addr := m.eval(f, in.Args[0])
		m.Clock.Advance(m.cost.Flush)
		if pmem.IsPM(addr) {
			if err := m.yieldFlush(addr, in.FlushK.Ordered()); err != nil {
				return err
			}
			seq := m.emit(in, trace.Event{Kind: trace.KindFlush, FlushK: in.FlushK, Addr: addr})
			moved := 0
			if m.Track != nil {
				moved = m.Track.OnFlushT(seq, m.curTid(), in.FlushK.Ordered(), addr)
			}
			if moved > 0 && in.FlushK.Ordered() {
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

	case ir.OpFence:
		if err := m.yieldPM(PendFence, 0); err != nil {
			return err
		}
		seq := m.emit(in, trace.Event{Kind: trace.KindFence, FenceK: in.FenceK})
		drained := 0
		if m.Track != nil {
			drained = m.Track.OnFenceT(seq, m.curTid())
		}
		m.Clock.Advance(m.cost.FenceBase + float64(drained)*m.cost.FenceDrainPerLine)
		if err := m.pmEvent(EvFence); err != nil {
			return err
		}

	case ir.OpSpawn:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.eval(f, a)
		}
		m.ensureMT()
		if err := m.yieldPM(PendSpawn, 0); err != nil {
			return err
		}
		tid, err := m.spawnThread(in.Callee, args)
		if err != nil {
			return err
		}
		f.regs[in.Slot] = uint64(tid)
		m.Clock.Advance(m.cost.Call)

	case ir.OpJoin:
		h := m.eval(f, in.Args[0])
		if m.mt == nil {
			return m.fault("join before any spawn")
		}
		tid := int(h)
		if tid <= 0 || tid >= len(m.mt.threads) {
			return m.fault("join on invalid thread handle %d", int64(h))
		}
		t := m.mt.threads[tid]
		if t.joined {
			return m.fault("thread %d joined twice", tid)
		}
		if err := m.yieldJoin(tid); err != nil {
			return err
		}
		if t.joined {
			// Another thread won the race to join between our
			// announcement and our turn.
			return m.fault("thread %d joined twice", tid)
		}
		t.joined = true
		f.regs[in.Slot] = t.result
		m.Clock.Advance(m.cost.Call)

	case ir.OpAtomicLoad:
		addr := m.eval(f, in.Args[0])
		if err := m.checkAccess(addr, 8, "atomic load"); err != nil {
			return err
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		f.regs[in.Slot] = m.Mem.ReadUint(addr, 8)
		if pmem.IsPM(addr) {
			m.Clock.Advance(m.cost.LoadPM)
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}

	case ir.OpAtomicStore:
		val := m.eval(f, in.Args[0])
		addr := m.eval(f, in.Args[1])
		if err := m.checkAccess(addr, 8, "atomic store"); err != nil {
			return err
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
			return err
		}
		if err := m.atomicWrite(in, addr, val); err != nil {
			return err
		}

	case ir.OpAtomicRMW:
		operand := m.eval(f, in.Args[0])
		addr := m.eval(f, in.Args[1])
		if err := m.checkAccess(addr, 8, "atomic rmw"); err != nil {
			return err
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
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
		f.regs[in.Slot] = old

	case ir.OpAtomicCAS:
		expect := m.eval(f, in.Args[0])
		nv := m.eval(f, in.Args[1])
		addr := m.eval(f, in.Args[2])
		if err := m.checkAccess(addr, 8, "atomic cas"); err != nil {
			return err
		}
		if err := m.yieldPM(PendAtomic, addr); err != nil {
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
		f.regs[in.Slot] = old

	default:
		switch {
		case in.Op.IsBinary():
			x := m.eval(f, in.Args[0])
			y := m.eval(f, in.Args[1])
			v, err := binOp(in.Op, x, y, in.Ty)
			if err != nil {
				return m.fault("%s", err)
			}
			f.regs[in.Slot] = truncTo(in.Ty, v)
			m.Clock.Advance(m.cost.ALUOp)
		case in.Op.IsCmp():
			x := int64(m.eval(f, in.Args[0]))
			y := int64(m.eval(f, in.Args[1]))
			f.regs[in.Slot] = boolVal(cmpOp(in.Op, x, y))
			m.Clock.Advance(m.cost.ALUOp)
		case in.Op.IsCast():
			v := m.eval(f, in.Args[0])
			f.regs[in.Slot] = truncTo(in.Ty, v)
			m.Clock.Advance(m.cost.ALUOp)
		default:
			return m.fault("cannot execute %s", ir.FormatInstr(in))
		}
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
	data := buf[:]
	m.Mem.Read(addr, data)
	e := trace.Event{Kind: trace.KindStore, Addr: addr, Size: 8}
	if pmem.IsPM(val) {
		e.Val = val
	}
	seq := m.emit(in, e)
	if m.Track != nil {
		m.Track.OnStoreT(seq, m.curTid(), addr, data)
	}
	m.Clock.Advance(m.cost.StorePM)
	return m.pmEvent(EvStore)
}

func (m *Machine) checkAccess(addr uint64, size int64, op string) error {
	if pmem.RegionOf(addr) == pmem.RegionInvalid {
		return m.fault("invalid %s of %d bytes at %#x", op, size, addr)
	}
	return nil
}

func binOp(op ir.Op, x, y uint64, ty ir.Type) (uint64, error) {
	switch op {
	case ir.OpAdd:
		return x + y, nil
	case ir.OpSub:
		return x - y, nil
	case ir.OpMul:
		return x * y, nil
	case ir.OpSDiv:
		if y == 0 {
			return 0, fmt.Errorf("division by zero")
		}
		return uint64(int64(x) / int64(y)), nil
	case ir.OpSRem:
		if y == 0 {
			return 0, fmt.Errorf("remainder by zero")
		}
		return uint64(int64(x) % int64(y)), nil
	case ir.OpAnd:
		return x & y, nil
	case ir.OpOr:
		return x | y, nil
	case ir.OpXor:
		return x ^ y, nil
	case ir.OpShl:
		return x << (y & 63), nil
	case ir.OpAShr:
		return uint64(int64(x) >> (y & 63)), nil
	}
	return 0, fmt.Errorf("bad binary op %s", op)
}

func cmpOp(op ir.Op, x, y int64) bool {
	switch op {
	case ir.OpEq:
		return x == y
	case ir.OpNe:
		return x != y
	case ir.OpLt:
		return x < y
	case ir.OpLe:
		return x <= y
	case ir.OpGt:
		return x > y
	case ir.OpGe:
		return x >= y
	}
	panic("interp: bad comparison " + op.String())
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
