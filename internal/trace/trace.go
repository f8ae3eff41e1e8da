// Package trace defines the persistent-memory operation trace that flows
// from the execution environment (internal/interp) to the bug detector
// (internal/pmcheck) and the fixer (internal/core). It mirrors the
// information the paper requires from a PM bug-finding tool (§4.1): each
// event carries its kind, the PM address range involved, the IR location
// of the instruction, the source location, and the full call stack at the
// time of the event. Traces serialize to a stable pmemcheck-like text form
// so they can be stored and fed to the CLI tools.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

// Kind is the event type.
type Kind int

// The event kinds. Only PM-relevant operations are traced (as with
// pmemcheck); volatile stores do not appear.
const (
	KindStore Kind = iota
	KindNTStore
	KindFlush
	KindFence
	// KindCheckpoint is a durability point: a crash may occur here and
	// every earlier PM store must be durable (the paper's instruction I
	// in X → F(X) → M → I). The end of the program is an implicit
	// durability point appended by the interpreter.
	KindCheckpoint
	// KindAlloc records a persistent-memory allocation (a pm_alloc or
	// pm_root call, or a persistent global at startup, in which case Sym
	// holds the global's name). PM bug finders know the persistent
	// regions (pmemcheck tracks registered pools), and Trace-AA derives
	// object PM-ness from these events.
	KindAlloc
)

func (k Kind) String() string {
	switch k {
	case KindStore:
		return "store"
	case KindNTStore:
		return "ntstore"
	case KindFlush:
		return "flush"
	case KindFence:
		return "fence"
	case KindCheckpoint:
		return "checkpoint"
	case KindAlloc:
		return "alloc"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Frame is one call-stack entry. Frame zero of an event is the function
// containing the event's instruction; outer frames identify the call
// instruction that was executing in each caller.
type Frame struct {
	// Func is the IR function name.
	Func string
	// InstrID is the per-function instruction ID ((*ir.Func).Renumber).
	InstrID int
	// Loc is the front-end source location, when available.
	Loc ir.Loc
}

func (f Frame) String() string {
	if f.Loc.IsZero() {
		return fmt.Sprintf("%s@%d", f.Func, f.InstrID)
	}
	return fmt.Sprintf("%s@%d(%s)", f.Func, f.InstrID, f.Loc)
}

// Event is one traced PM operation.
type Event struct {
	Seq    int
	Kind   Kind
	Addr   uint64
	Size   int
	FlushK ir.FlushKind // KindFlush only
	FenceK ir.FenceKind // KindFence only
	// Tid is the simulated thread that issued the event (0 = main). The
	// textual form only carries it when nonzero, so single-threaded
	// traces serialize exactly as they always have.
	Tid int
	// Val is the stored value for 8-byte store/ntstore events whose value
	// is a PM address (a potential pointer publish). Offline detectors
	// replay payload bytes from it; it is omitted from the textual form
	// otherwise (PM addresses are never zero).
	Val uint64
	// Sym names the persistent global for startup KindAlloc events.
	Sym string
	// Stack is the call stack, innermost frame first.
	Stack []Frame
}

// Site returns the innermost frame (the instruction that produced the event).
func (e *Event) Site() Frame {
	if len(e.Stack) == 0 {
		return Frame{}
	}
	return e.Stack[0]
}

// Trace is an ordered event sequence.
type Trace struct {
	// Program names the module the trace was recorded against.
	Program string
	Events  []*Event
}

// Append adds an event, assigning the next sequence number.
func (t *Trace) Append(e *Event) *Event {
	e.Seq = len(t.Events)
	t.Events = append(t.Events, e)
	return e
}

// NumKinds is the number of event kinds, for dense per-kind arrays.
const NumKinds = int(KindAlloc) + 1

// KindCounts returns the number of events of each kind as a dense array
// indexed by Kind. The telemetry layer calls it once per interpreter
// run, so it is allocation-free by design (it used to build a map per
// call); format names with Kind(i).String() when publishing.
func (t *Trace) KindCounts() [NumKinds]int {
	var out [NumKinds]int
	for _, e := range t.Events {
		if k := int(e.Kind); k >= 0 && k < NumKinds {
			out[k]++
		}
	}
	return out
}

// Stores returns the store and non-temporal-store events.
func (t *Trace) Stores() []*Event {
	var out []*Event
	for _, e := range t.Events {
		if e.Kind == KindStore || e.Kind == KindNTStore {
			out = append(out, e)
		}
	}
	return out
}

// Write serializes the trace in the textual form.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "pmtrace %s\n", t.Program)
	for _, e := range t.Events {
		fmt.Fprintf(bw, "#%d %s", e.Seq, e.Kind)
		switch e.Kind {
		case KindStore, KindNTStore:
			fmt.Fprintf(bw, " addr=0x%x size=%d", e.Addr, e.Size)
			if e.Val != 0 {
				fmt.Fprintf(bw, " val=0x%x", e.Val)
			}
		case KindFlush:
			fmt.Fprintf(bw, " %s addr=0x%x", e.FlushK, e.Addr)
		case KindFence:
			fmt.Fprintf(bw, " %s", e.FenceK)
		case KindCheckpoint:
			// No payload.
		case KindAlloc:
			fmt.Fprintf(bw, " addr=0x%x size=%d", e.Addr, e.Size)
			if e.Sym != "" {
				fmt.Fprintf(bw, " sym=@%s", e.Sym)
			}
		}
		if e.Tid != 0 {
			fmt.Fprintf(bw, " tid=%d", e.Tid)
		}
		for _, f := range e.Stack {
			fmt.Fprintf(bw, " | %s", f)
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}

// String renders the textual form.
func (t *Trace) String() string {
	var sb strings.Builder
	if err := t.Write(&sb); err != nil {
		panic(err) // strings.Builder cannot fail
	}
	return sb.String()
}

// Parse reads the textual form back.
func Parse(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("trace: empty input")
	}
	header := sc.Text()
	if !strings.HasPrefix(header, "pmtrace ") {
		return nil, fmt.Errorf("trace: missing pmtrace header")
	}
	t := &Trace{Program: strings.TrimSpace(strings.TrimPrefix(header, "pmtrace "))}
	ln := 1
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		e, err := parseEvent(line)
		if err == nil {
			err = e.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", ln, err)
		}
		t.Events = append(t.Events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t, nil
}

// validate rejects a parsed event the durability model cannot replay: a
// store or NT store is 1 to 8 bytes wide and stays within one cache line,
// as every store the interpreter records does, and a thread id is one a
// machine can run (the tracker sizes per-thread state by it).
func (e *Event) validate() error {
	if e.Tid < 0 {
		return fmt.Errorf("negative thread id %d", e.Tid)
	}
	if e.Tid >= pmem.MaxThreads {
		return fmt.Errorf("thread id %d not below the %d-thread limit", e.Tid, pmem.MaxThreads)
	}
	if e.Kind != KindStore && e.Kind != KindNTStore {
		return nil
	}
	if e.Size < 1 || e.Size > 8 {
		return fmt.Errorf("store size %d outside 1..8", e.Size)
	}
	if pmem.LineOf(e.Addr) != pmem.LineOf(e.Addr+uint64(e.Size)-1) {
		return fmt.Errorf("store at 0x%x size %d crosses a %d-byte cache line", e.Addr, e.Size, pmem.LineSize)
	}
	return nil
}

// ParseString parses a serialized trace from a string.
func ParseString(s string) (*Trace, error) { return Parse(strings.NewReader(s)) }

func parseEvent(line string) (*Event, error) {
	parts := strings.Split(line, " | ")
	head := strings.Fields(parts[0])
	if len(head) < 2 || !strings.HasPrefix(head[0], "#") {
		return nil, fmt.Errorf("malformed event %q", line)
	}
	seq, err := strconv.Atoi(head[0][1:])
	if err != nil {
		return nil, fmt.Errorf("malformed sequence %q", head[0])
	}
	e := &Event{Seq: seq}
	attrs := head[2:]
	switch head[1] {
	case "store", "ntstore":
		e.Kind = KindStore
		if head[1] == "ntstore" {
			e.Kind = KindNTStore
		}
		for _, a := range attrs {
			switch {
			case strings.HasPrefix(a, "addr=0x"):
				v, err := strconv.ParseUint(a[len("addr=0x"):], 16, 64)
				if err != nil {
					return nil, err
				}
				e.Addr = v
			case strings.HasPrefix(a, "size="):
				v, err := strconv.Atoi(a[len("size="):])
				if err != nil {
					return nil, err
				}
				e.Size = v
			case strings.HasPrefix(a, "val=0x"):
				v, err := strconv.ParseUint(a[len("val=0x"):], 16, 64)
				if err != nil {
					return nil, err
				}
				e.Val = v
			case strings.HasPrefix(a, "tid="):
				v, err := strconv.Atoi(a[len("tid="):])
				if err != nil {
					return nil, err
				}
				e.Tid = v
			}
		}
	case "flush":
		e.Kind = KindFlush
		if len(attrs) < 2 {
			return nil, fmt.Errorf("malformed flush %q", line)
		}
		switch attrs[0] {
		case "clwb":
			e.FlushK = ir.CLWB
		case "clflushopt":
			e.FlushK = ir.CLFLUSHOPT
		case "clflush":
			e.FlushK = ir.CLFLUSH
		default:
			return nil, fmt.Errorf("unknown flush kind %q", attrs[0])
		}
		for _, a := range attrs[1:] {
			switch {
			case strings.HasPrefix(a, "addr=0x"):
				v, err := strconv.ParseUint(a[len("addr=0x"):], 16, 64)
				if err != nil {
					return nil, err
				}
				e.Addr = v
			case strings.HasPrefix(a, "tid="):
				v, err := strconv.Atoi(a[len("tid="):])
				if err != nil {
					return nil, err
				}
				e.Tid = v
			}
		}
	case "fence":
		e.Kind = KindFence
		if len(attrs) < 1 {
			return nil, fmt.Errorf("malformed fence %q", line)
		}
		switch attrs[0] {
		case "sfence":
			e.FenceK = ir.SFENCE
		case "mfence":
			e.FenceK = ir.MFENCE
		default:
			return nil, fmt.Errorf("unknown fence kind %q", attrs[0])
		}
		for _, a := range attrs[1:] {
			if strings.HasPrefix(a, "tid=") {
				v, err := strconv.Atoi(a[len("tid="):])
				if err != nil {
					return nil, err
				}
				e.Tid = v
			}
		}
	case "checkpoint":
		e.Kind = KindCheckpoint
		for _, a := range attrs {
			if strings.HasPrefix(a, "tid=") {
				v, err := strconv.Atoi(a[len("tid="):])
				if err != nil {
					return nil, err
				}
				e.Tid = v
			}
		}
	case "alloc":
		e.Kind = KindAlloc
		for _, a := range attrs {
			switch {
			case strings.HasPrefix(a, "addr=0x"):
				v, err := strconv.ParseUint(a[len("addr=0x"):], 16, 64)
				if err != nil {
					return nil, err
				}
				e.Addr = v
			case strings.HasPrefix(a, "size="):
				v, err := strconv.Atoi(a[len("size="):])
				if err != nil {
					return nil, err
				}
				e.Size = v
			case strings.HasPrefix(a, "sym=@"):
				e.Sym = a[len("sym=@"):]
			case strings.HasPrefix(a, "tid="):
				v, err := strconv.Atoi(a[len("tid="):])
				if err != nil {
					return nil, err
				}
				e.Tid = v
			}
		}
	default:
		return nil, fmt.Errorf("unknown event kind %q", head[1])
	}
	for _, fs := range parts[1:] {
		f, err := parseFrame(strings.TrimSpace(fs))
		if err != nil {
			return nil, err
		}
		e.Stack = append(e.Stack, f)
	}
	return e, nil
}

func parseFrame(s string) (Frame, error) {
	var f Frame
	// Forms: "func@12" or "func@12(file:line)".
	if i := strings.IndexByte(s, '('); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return f, fmt.Errorf("malformed frame %q", s)
		}
		locStr := s[i+1 : len(s)-1]
		s = s[:i]
		j := strings.LastIndexByte(locStr, ':')
		if j < 0 {
			return f, fmt.Errorf("malformed frame location %q", locStr)
		}
		n, err := strconv.Atoi(locStr[j+1:])
		if err != nil {
			return f, fmt.Errorf("malformed frame line %q", locStr)
		}
		f.Loc = ir.Loc{File: locStr[:j], Line: n}
	}
	at := strings.LastIndexByte(s, '@')
	if at < 0 {
		return f, fmt.Errorf("malformed frame %q", s)
	}
	id, err := strconv.Atoi(s[at+1:])
	if err != nil {
		return f, fmt.Errorf("malformed frame instruction id %q", s)
	}
	f.Func = s[:at]
	f.InstrID = id
	return f, nil
}
