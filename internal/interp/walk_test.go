package interp

import (
	"errors"
	"fmt"
	"time"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// The tree-walking interpreter, kept as the reference the decoded
// interpreter is checked against (decode_test.go): it re-dispatches on
// ir.Value interfaces and looks up builtins and globals by name at
// every step, exactly as the interpreter did before decoding.
//
// The tree-walker recurses on the Go stack, so it cannot park a thread
// as data. Each simulated thread runs on a goroutine of its own instead,
// and a baton (a channel per thread) keeps exactly one of them running.
// The scheduling is the machine's own: the walker announces through
// Machine.announce, and the machine's pick, switchTo and exitThread
// choose and install the next thread; the walker only wakes that
// thread's goroutine.

// useTreeWalk makes m run on the tree-walking interpreter.
func useTreeWalk(m *Machine) {
	w := &walker{m: m, threads: []*walkThread{{wake: make(chan error)}}}
	m.walk = w.run
}

// walker runs one machine on the tree-walking interpreter.
type walker struct {
	m *Machine
	// threads is indexed by tid; threads[0] is main, which runs on the
	// goroutine that called Run.
	threads []*walkThread
}

// walkThread is the baton of one simulated thread's goroutine.
type walkThread struct {
	// wake resumes the thread: nil to run on, or the error the run ends
	// with (errKilled unwinds a thread still parked at teardown).
	wake chan error
	// done is closed when a spawned thread's goroutine returns.
	done chan struct{}
	// ended is set once the goroutine no longer runs the thread.
	ended bool
}

// errKilled unwinds the goroutine of a thread still parked when the run
// ends.
var errKilled = errors.New("interp: walker thread killed")

// run runs the entry function as main, then unwinds the goroutines of
// threads still parked, one at a time with their own frames installed.
func (w *walker) run(fn *ir.Func, args []uint64) (uint64, error) {
	ret, err := w.call(fn, args)
	m := w.m
	for i, t := range w.threads[1:] {
		if !t.ended {
			m.switchTo(m.mt.threads[i+1])
			t.wake <- errKilled
		}
		<-t.done
	}
	return ret, err
}

// start runs spawned thread tid on a goroutine of its own, parked until
// the machine first schedules it.
func (w *walker) start(tid int, fn *ir.Func, args []uint64) {
	t := &walkThread{wake: make(chan error), done: make(chan struct{})}
	w.threads = append(w.threads, t)
	go func() {
		defer close(t.done)
		err := <-t.wake
		if err == nil {
			var ret uint64
			ret, err = w.call(fn, args)
			if err == nil {
				err = w.m.exitThread(ret)
			}
		}
		t.ended = true
		switch {
		case err == errKilled:
		case err != nil:
			// The run ends with err: main unwinds with it.
			w.m.switchTo(w.m.mt.threads[0])
			w.threads[0].wake <- err
		default:
			w.threads[w.m.mt.cur].wake <- nil
		}
	}()
}

// retry runs op, which announces before any effect. While the machine
// switches to another thread first, the walker hands that thread's
// goroutine the baton, and runs op again once its own thread is chosen
// again.
func (w *walker) retry(op func() (uint64, error)) (uint64, error) {
	for {
		self := w.threads[w.m.curTid()]
		ret, err := op()
		if err != errSwitch {
			return ret, err
		}
		w.threads[w.m.mt.cur].wake <- nil
		if err := <-self.wake; err != nil {
			return 0, err
		}
	}
}

// yield announces p and returns once the running thread may perform it.
func (w *walker) yield(p PendingOp) error {
	_, err := w.retry(func() (uint64, error) { return 0, w.m.announce(p) })
	return err
}

// call is the tree-walking interpreter's call: the reference the
// decoded ops are checked against. It walks the IR itself, dispatching
// on ir.Value interfaces per operand.
func (w *walker) call(fn *ir.Func, args []uint64) (uint64, error) {
	m := w.m
	if len(m.frames) >= 10_000 {
		return 0, m.fault("stack overflow calling @%s", fn.Name)
	}
	f := m.getFrame(fn, fn.NumSlots())
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
				return m.walkEval(f, in.Args[0]), nil
			case ir.OpJmp:
				next = in.Succs()[0]
			case ir.OpBr:
				m.Clock.Advance(m.cost.ALUOp)
				if m.walkEval(f, in.Args[0]) != 0 {
					next = in.Succs()[0]
				} else {
					next = in.Succs()[1]
				}
			default:
				if err := w.exec(f, in); err != nil {
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

// walkEval computes an operand's runtime value.
func (m *Machine) walkEval(f *frame, v ir.Value) uint64 {
	switch x := v.(type) {
	case *ir.Instr:
		return f.regs[x.Slot]
	case *ir.Const:
		return uint64(x.Val)
	case *ir.Param:
		return f.regs[x.Index]
	case *ir.Global:
		a, _ := m.globalAddrOf(x.Name)
		return a
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
func (w *walker) exec(f *frame, in *ir.Instr) error {
	m := w.m
	switch in.Op {
	case ir.OpAlloca:
		size := alignUp(uint64(in.AllocTy().Size()), 16)
		addr := m.allocStack(size)
		if addr == 0 {
			return m.fault("stack overflow in alloca")
		}
		f.regs[in.Slot] = addr
		m.Clock.Advance(m.cost.ALUOp)

	case ir.OpLoad:
		addr := m.walkEval(f, in.Args[0])
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
		val := m.walkEval(f, in.Args[0])
		addr := m.walkEval(f, in.Args[1])
		size := in.StoreTy().Size()
		if err := m.checkAccess(addr, size, "store"); err != nil {
			return err
		}
		if pmem.IsPM(addr) {
			pend := PendStore
			if in.Op == ir.OpNTStore {
				pend = PendNTStore
			}
			if err := w.yield(PendingOp{Kind: pend, Addr: addr}); err != nil {
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
			m.trackStore(seq, addr, data, in.Op == ir.OpNTStore)
			m.Clock.Advance(m.cost.StorePM)
			if err := m.pmEvent(ev); err != nil {
				return err
			}
		} else {
			m.Mem.WriteUint(addr, int(size), val)
			m.Clock.Advance(m.cost.StoreDRAM)
		}

	case ir.OpPtrAdd:
		base := m.walkEval(f, in.Args[0])
		idx := m.walkEval(f, in.Args[1])
		f.regs[in.Slot] = base + idx*uint64(in.Scale()) + uint64(in.Disp())
		m.Clock.Advance(m.cost.ALUOp)

	case ir.OpCall:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.walkEval(f, a)
		}
		var ret uint64
		var err error
		if in.Callee().IsDecl() {
			b, ok := stdBuiltins[in.Callee().Name]
			if !ok {
				return m.fault("call to unregistered external @%s", in.Callee().Name)
			}
			ret, err = w.retry(func() (uint64, error) { return b(m, args) })
		} else {
			ret, err = w.call(in.Callee(), args)
		}
		if err != nil {
			return err
		}
		if in.HasResult() {
			f.regs[in.Slot] = ret
		}

	case ir.OpFlush:
		addr := m.walkEval(f, in.Args[0])
		m.Clock.Advance(m.cost.Flush)
		if pmem.IsPM(addr) {
			if err := w.yield(PendingOp{Kind: PendFlush, Addr: addr, Ordered: in.FlushK.Ordered()}); err != nil {
				return err
			}
			seq := m.emit(in, trace.Event{Kind: trace.KindFlush, FlushK: in.FlushK, Addr: addr})
			moved := m.trackFlush(seq, in.FlushK.Ordered(), addr)
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
		if err := w.yield(PendingOp{Kind: PendFence}); err != nil {
			return err
		}
		seq := m.emit(in, trace.Event{Kind: trace.KindFence, FenceK: in.FenceK})
		drained := m.trackFence(seq)
		m.Clock.Advance(m.cost.FenceBase + float64(drained)*m.cost.FenceDrainPerLine)
		if err := m.pmEvent(EvFence); err != nil {
			return err
		}

	case ir.OpSpawn:
		args := make([]uint64, len(in.Args))
		for i, a := range in.Args {
			args[i] = m.walkEval(f, a)
		}
		m.ensureMT()
		if err := w.yield(PendingOp{Kind: PendSpawn}); err != nil {
			return err
		}
		tid, err := m.spawnThread(in.Callee(), args)
		if err != nil {
			return err
		}
		w.start(tid, in.Callee(), args)
		f.regs[in.Slot] = uint64(tid)
		m.Clock.Advance(m.cost.Call)

	case ir.OpJoin:
		h := m.walkEval(f, in.Args[0])
		ret, err := w.retry(func() (uint64, error) { return m.join(h) })
		if err != nil {
			return err
		}
		f.regs[in.Slot] = ret

	case ir.OpAtomicLoad:
		addr := m.walkEval(f, in.Args[0])
		if err := m.checkAccess(addr, 8, "atomic load"); err != nil {
			return err
		}
		if err := w.yield(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		f.regs[in.Slot] = m.Mem.ReadUint(addr, 8)
		if pmem.IsPM(addr) {
			m.Clock.Advance(m.cost.LoadPM)
		} else {
			m.Clock.Advance(m.cost.LoadDRAM)
		}

	case ir.OpAtomicStore:
		val := m.walkEval(f, in.Args[0])
		addr := m.walkEval(f, in.Args[1])
		if err := m.checkAccess(addr, 8, "atomic store"); err != nil {
			return err
		}
		if err := w.yield(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
			return err
		}
		if err := m.atomicWrite(in, addr, val); err != nil {
			return err
		}

	case ir.OpAtomicRMW:
		operand := m.walkEval(f, in.Args[0])
		addr := m.walkEval(f, in.Args[1])
		if err := m.checkAccess(addr, 8, "atomic rmw"); err != nil {
			return err
		}
		if err := w.yield(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
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
		expect := m.walkEval(f, in.Args[0])
		nv := m.walkEval(f, in.Args[1])
		addr := m.walkEval(f, in.Args[2])
		if err := m.checkAccess(addr, 8, "atomic cas"); err != nil {
			return err
		}
		if err := w.yield(PendingOp{Kind: PendAtomic, Addr: addr}); err != nil {
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
			x := m.walkEval(f, in.Args[0])
			y := m.walkEval(f, in.Args[1])
			v, err := binOp(in.Op, x, y, in.Ty)
			if err != nil {
				return m.fault("%s", err)
			}
			f.regs[in.Slot] = truncTo(in.Ty, v)
			m.Clock.Advance(m.cost.ALUOp)
		case in.Op.IsCmp():
			x := int64(m.walkEval(f, in.Args[0]))
			y := int64(m.walkEval(f, in.Args[1]))
			f.regs[in.Slot] = boolVal(cmpOp(in.Op, x, y))
			m.Clock.Advance(m.cost.ALUOp)
		case in.Op.IsCast():
			v := m.walkEval(f, in.Args[0])
			f.regs[in.Slot] = truncTo(in.Ty, v)
			m.Clock.Advance(m.cost.ALUOp)
		default:
			return m.fault("cannot execute %s", ir.FormatInstr(in))
		}
	}
	return nil
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
