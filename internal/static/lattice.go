package static

import (
	"strconv"
	"strings"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmcheck"
	"hippocrates/internal/trace"
)

// stateBits is the abstract persistency state of one tracked store fact,
// mirroring internal/pmem's per-store state machine. Because the analysis
// joins over CFG paths, a fact holds a SET of possible machine states; a
// bit is set when some execution reaching the program point may leave an
// instance of the store in that state. Durable is the absence of all bits:
// a fact with no bits left is dropped from the dataflow state.
type stateBits uint8

const (
	// stDirty: stored, not flushed, and no fence has executed since the
	// store. At a durability point this is the paper's missing-flush&fence.
	stDirty stateBits = 1 << iota
	// stDirtyFenced: stored, not flushed, but some fence executed after
	// the store (pmem classifies this missing-flush: a fence already
	// exists, only the flush must be inserted before it).
	stDirtyFenced
	// stFlushed: weakly flushed (CLWB/CLFLUSHOPT) or written non-temporally,
	// awaiting the fence that makes it durable (missing-fence).
	stFlushed
)

// needs maps a state set to the mechanisms a fix must provide, matching
// pmem.Tracker.OnCheckpoint's classification of each micro-state.
func (s stateBits) needs() pmcheck.Needs {
	var n pmcheck.Needs
	if s&stDirty != 0 {
		n.Flush, n.Fence = true, true
	}
	if s&stDirtyFenced != 0 {
		n.Flush = true
	}
	if s&stFlushed != 0 {
		n.Fence = true
	}
	return n
}

// afterFence is the state set after a fence certainly executes: flushed
// instances drain to durable, dirty instances become dirty-fenced.
func (s stateBits) afterFence() stateBits {
	if s&(stDirty|stDirtyFenced) != 0 {
		return stDirtyFenced
	}
	return 0
}

// maxStackDepth caps relative call-chain length so recursive programs
// reach a summary fixpoint; frames beyond the cap are not appended (the
// outermost context is dropped, which only coarsens report deduplication).
const maxStackDepth = 16

// fact is one tracked may-PM store site, keyed by its (relative) call
// chain within the function being analyzed. Facts created in callees enter
// callers through exit facts with the call frame appended, so at the entry
// function the stack is absolute and matches the dynamic trace's shape
// (innermost frame first).
type fact struct {
	id    int
	stack []trace.Frame
	key   string

	// op is the producing instruction kind: OpStore, OpNTStore, or OpCall
	// for builtin memcpy/memset (the dynamic tracer also attributes those
	// to the call instruction).
	op   ir.Op
	size int64 // stored bytes; 0 when unknown (non-constant memcpy length)
	nt   bool

	// ptr is the address operand, used for the same-SSA-value must-flush
	// rule (valid only against flushes in the defining function).
	ptr ir.Value
	// def is the producing instruction when the fact was created in the
	// function under analysis; nil for facts adopted from callee exits,
	// where the same-block must-flush rule can never apply.
	def *ir.Instr

	// objs are the alias objects the address may point into; anyObj marks
	// an address that may point anywhere (extern or untracked), which every
	// flush must be assumed to cover.
	objs   map[int]bool
	anyObj bool

	// Resolved static line range (root allocation + cache-line interval)
	// when the address is a constant offset from a line-aligned PM root.
	lineOK         bool
	root           ir.Value
	lineLo, lineHi int64

	// flushSites collects the flush instructions that may have flushed this
	// fact — the insertion points for fence-only fixes. For non-temporal
	// stores the site is the store itself.
	flushSites map[pmcheck.SiteKey]trace.Frame
}

func (f *fact) addFlushSite(fr trace.Frame) {
	k := pmcheck.SiteKey{Func: fr.Func, InstrID: fr.InstrID}
	if _, ok := f.flushSites[k]; !ok {
		f.flushSites[k] = fr
	}
}

// factState maps live facts to their possible-state sets. Facts with zero
// bits are removed (durable).
type factState map[*fact]stateBits

func (st factState) clone() factState {
	out := make(factState, len(st))
	for f, b := range st {
		out[f] = b
	}
	return out
}

// joinInto unions src into dst and reports whether dst changed.
func joinInto(dst, src factState) bool {
	changed := false
	for f, b := range src {
		if dst[f]&b != b {
			dst[f] |= b
			changed = true
		}
	}
	return changed
}

// stackKey renders a relative call chain as an interning key, in the same
// func@id form pmcheck uses for dynamic stacks.
func stackKey(stack []trace.Frame) string {
	var b strings.Builder
	for _, f := range stack {
		b.WriteString(f.Func)
		b.WriteByte('@')
		b.WriteString(strconv.Itoa(f.InstrID))
		b.WriteByte(';')
	}
	return b.String()
}

// appendFrame extends a relative chain with the caller frame, respecting
// the recursion depth cap.
func appendFrame(stack []trace.Frame, fr trace.Frame) []trace.Frame {
	if len(stack) >= maxStackDepth {
		return stack
	}
	out := make([]trace.Frame, 0, len(stack)+1)
	out = append(out, stack...)
	return append(out, fr)
}
