package interp

import (
	"fmt"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
	"hippocrates/internal/trace"
)

// The standard externals available to every program. Front-end programs
// declare the ones they use; the lowering pass injects matching
// declarations automatically.
//
//	pm_alloc(n) -> ptr      allocate n bytes of persistent memory
//	                        (cache-line aligned; the allocator cursor
//	                        lives in a reserved PM line and survives
//	                        restarts, like PMDK's internal metadata)
//	pm_root(n) -> ptr       idempotent root object of n bytes: the first
//	                        call allocates, later calls (and restarts)
//	                        return the same address
//	malloc(n) -> ptr        allocate volatile heap memory
//	free(p) -> void         release heap memory (no-op bump allocator)
//	memcpy(d, s, n) -> ptr  byte copy; PM destinations are tracked
//	memset(d, c, n) -> ptr  byte fill; PM destinations are tracked
//	pm_checkpoint() -> void durability point (crash may happen here)
//	pm_assert(c, msg) -> void  recovery invariant: c == 0 aborts with a
//	                        typed *AssertError carrying msg (crash-state
//	                        validation treats it as a failed schedule)
//	print_int(v) -> void    write the integer and '\n' to stdout
//	print_str(p) -> void    write the NUL-terminated string to stdout
//	abort_msg(p) -> void    abort execution with the given message
//
// Builtin memcpy/memset stores into PM appear in the trace with the call
// instruction as their innermost frame (there is no IR body to point
// into); corpus code that wants fixable per-store events uses the
// pmc-level copy loops from the mini-libpmem instead.
//
// The table is never written, so every machine shares it; decoding
// resolves each call site's handler from it once. A handler that
// announces a visible operation does nothing before its announcement:
// if the scheduler runs another thread first, the handler runs again
// from the start when its thread is chosen again.
var stdBuiltins = map[string]builtin{
	"pm_alloc":      biPMAlloc,
	"pm_root":       biPMRoot,
	"malloc":        biMalloc,
	"free":          func(*Machine, []uint64) (uint64, error) { return 0, nil },
	"memcpy":        biMemcpy,
	"memset":        biMemset,
	"flush_range":   biFlushRange,
	"pm_checkpoint": biCheckpoint,
	"pm_assert":     biPMAssert,
	"print_int":     biPrintInt,
	"print_str":     biPrintStr,
	"abort_msg":     biAbort,
}

// StdDecls returns fresh declarations for the standard externals, for
// modules built by hand (the front end injects its own).
func StdDecls() []*ir.Func {
	p := func(n string) *ir.Param { return &ir.Param{Name: n, Ty: ir.Ptr} }
	i := func(n string) *ir.Param { return &ir.Param{Name: n, Ty: ir.I64} }
	return []*ir.Func{
		ir.NewFunc("pm_alloc", ir.Ptr, i("n")),
		ir.NewFunc("pm_root", ir.Ptr, i("n")),
		ir.NewFunc("malloc", ir.Ptr, i("n")),
		ir.NewFunc("free", ir.Void, p("p")),
		ir.NewFunc("memcpy", ir.Ptr, p("dst"), p("src"), i("n")),
		ir.NewFunc("memset", ir.Ptr, p("dst"), i("c"), i("n")),
		ir.NewFunc("flush_range", ir.Void, p("p"), i("n")),
		ir.NewFunc("pm_checkpoint", ir.Void),
		ir.NewFunc("pm_assert", ir.Void, i("cond"), p("msg")),
		ir.NewFunc("print_int", ir.Void, i("v")),
		ir.NewFunc("print_str", ir.Void, p("p")),
		ir.NewFunc("abort_msg", ir.Void, p("p")),
	}
}

func biPMAlloc(m *Machine, args []uint64) (uint64, error) {
	n := args[0]
	if n == 0 {
		n = 1
	}
	addr := alignUp(m.pmNext, pmem.LineSize)
	m.pmNext = addr + n
	// Persist the allocator cursor in the reserved metadata line. The
	// write bypasses the durability tracker: it models allocator-internal
	// metadata that PMDK keeps consistent on its own.
	m.Mem.WriteUint(pmem.PMBase, 8, m.pmNext)
	if addr+n > pmem.PMBase+pmem.DefaultPMSize {
		return 0, m.fault("persistent memory exhausted (%d bytes requested)", n)
	}
	m.emit(m.callInstr(), trace.Event{Kind: trace.KindAlloc, Addr: addr, Size: int(n)})
	return addr, nil
}

func biPMRoot(m *Machine, args []uint64) (uint64, error) {
	n := args[0]
	if m.rootAddr != 0 {
		if n != m.rootSize {
			return 0, m.fault("pm_root size changed: %d then %d", m.rootSize, n)
		}
		return m.rootAddr, nil
	}
	// The root address is persisted in the metadata line (offset 8) so a
	// restarted machine hands back the same object.
	if m.opts.ResumePM {
		if addr := m.Mem.ReadUint(pmem.PMBase+8, 8); addr != 0 {
			m.rootAddr, m.rootSize = addr, n
			return addr, nil
		}
	}
	addr, err := biPMAlloc(m, []uint64{n})
	if err != nil {
		return 0, err
	}
	m.rootAddr, m.rootSize = addr, n
	m.Mem.WriteUint(pmem.PMBase+8, 8, addr)
	return addr, nil
}

func biMalloc(m *Machine, args []uint64) (uint64, error) {
	n := args[0]
	if n == 0 {
		n = 1
	}
	addr := alignUp(m.heapNext, 16)
	m.heapNext = addr + n
	if m.heapNext > pmem.StackBase-pmem.StackMax {
		return 0, m.fault("heap exhausted (%d bytes requested)", n)
	}
	return addr, nil
}

// announceBulk announces a builtin's bulk write to dst when dst is PM.
// The whole write is one visible operation to the scheduler, announced
// before its first byte lands, so a thread chosen to run first sees none
// of it (a builtin memcpy is atomic at scheduling granularity).
func (m *Machine) announceBulk(dst uint64) error {
	if !pmem.IsPM(dst) {
		return nil
	}
	return m.announce(PendingOp{Kind: PendStore, Addr: dst})
}

// bulkWrite writes a builtin's buf at addr. A PM destination is traced
// and tracked in aligned chunks that never span cache lines; each chunk
// is a PM event boundary, so crash injection can land inside a builtin
// copy.
func (m *Machine) bulkWrite(addr uint64, buf []byte) error {
	m.Mem.Write(addr, buf)
	if !pmem.IsPM(addr) {
		m.Clock.Advance(float64(len(buf)) / 8 * m.cost.StoreDRAM)
		return nil
	}
	callIn := m.callInstr()
	off := uint64(0)
	n := uint64(len(buf))
	for off < n {
		chunk := uint64(8 - (addr+off)%8)
		if chunk > n-off {
			chunk = n - off
		}
		a := addr + off
		data := buf[off : off+chunk]
		seq := m.emit(callIn, trace.Event{Kind: trace.KindStore, Addr: a, Size: int(chunk)})
		m.trackStore(seq, a, data, false)
		m.Clock.Advance(m.cost.StorePM)
		if err := m.pmEvent(EvStore); err != nil {
			return err
		}
		off += chunk
	}
	return nil
}

// callInstr returns the active call instruction of the top frame (the
// builtin's caller).
func (m *Machine) callInstr() *ir.Instr {
	if len(m.frames) == 0 {
		return nil
	}
	return m.frames[len(m.frames)-1].cur
}

func biMemcpy(m *Machine, args []uint64) (uint64, error) {
	dst, src, n := args[0], args[1], args[2]
	if n == 0 {
		return dst, nil
	}
	if pmem.RegionOf(dst) == pmem.RegionInvalid || pmem.RegionOf(src) == pmem.RegionInvalid {
		return 0, m.fault("memcpy with invalid address (dst=%#x src=%#x n=%d)", dst, src, n)
	}
	if err := m.announceBulk(dst); err != nil {
		return 0, err
	}
	buf := make([]byte, n)
	m.Mem.Read(src, buf)
	if err := m.bulkWrite(dst, buf); err != nil {
		return 0, err
	}
	return dst, nil
}

func biMemset(m *Machine, args []uint64) (uint64, error) {
	dst, c, n := args[0], args[1], args[2]
	if n == 0 {
		return dst, nil
	}
	if pmem.RegionOf(dst) == pmem.RegionInvalid {
		return 0, m.fault("memset with invalid address (dst=%#x n=%d)", dst, n)
	}
	if err := m.announceBulk(dst); err != nil {
		return 0, err
	}
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(c)
	}
	if err := m.bulkWrite(dst, buf); err != nil {
		return 0, err
	}
	return dst, nil
}

// biFlushRange issues a weakly-ordered CLWB for every cache line in
// [p, p+n); a fence is still required afterwards. The fixer emits calls to
// it when a single store event covers more than one scalar (builtin
// memcpy/memset destinations).
func biFlushRange(m *Machine, args []uint64) (uint64, error) {
	addr, n := args[0], args[1]
	if n == 0 {
		return 0, nil
	}
	callIn := m.callInstr()
	if pmem.IsPM(addr) {
		// One announcement covers the whole range flush.
		if err := m.announce(PendingOp{Kind: PendFlush, Addr: addr}); err != nil {
			return 0, err
		}
	}
	end := addr + n
	for line := pmem.LineOf(addr); line < end; line += pmem.LineSize {
		m.Clock.Advance(m.cost.Flush)
		if !pmem.IsPM(line) {
			continue
		}
		seq := m.emit(callIn, trace.Event{Kind: trace.KindFlush, FlushK: ir.CLWB, Addr: line})
		m.trackFlush(seq, false, line) // weakly ordered: pays at the fence
		if err := m.pmEvent(EvFlush); err != nil {
			return 0, err
		}
	}
	return 0, nil
}

func biCheckpoint(m *Machine, _ []uint64) (uint64, error) {
	return 0, m.checkpoint(m.callInstr())
}

// AssertError is the typed failure of the pm_assert builtin: a recovery
// invariant did not hold. Crash-state validation (internal/crashsim)
// treats it as a failed crash schedule, with the message naming the
// violated invariant.
type AssertError struct {
	Msg   string
	Stack []trace.Frame
}

func (e *AssertError) Error() string {
	s := "interp: pm_assert failed: " + e.Msg
	for _, f := range e.Stack {
		s += "\n\tat " + f.String()
	}
	return s
}

func biPMAssert(m *Machine, args []uint64) (uint64, error) {
	if args[0] != 0 {
		return 0, nil
	}
	return 0, &AssertError{Msg: m.cString(args[1]), Stack: m.stack(m.callInstr())}
}

func biPrintInt(m *Machine, args []uint64) (uint64, error) {
	if m.opts.Stdout != nil {
		fmt.Fprintf(m.opts.Stdout, "%d\n", int64(args[0]))
	}
	return 0, nil
}

func (m *Machine) cString(addr uint64) string {
	var buf []byte
	for i := uint64(0); i < 1<<16; i++ {
		b := m.Mem.Load8(addr + i)
		if b == 0 {
			break
		}
		buf = append(buf, b)
	}
	return string(buf)
}

func biPrintStr(m *Machine, args []uint64) (uint64, error) {
	if m.opts.Stdout != nil {
		fmt.Fprintln(m.opts.Stdout, m.cString(args[0]))
	}
	return 0, nil
}

func biAbort(m *Machine, args []uint64) (uint64, error) {
	return 0, m.fault("abort: %s", m.cString(args[0]))
}
