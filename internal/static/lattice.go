package static

import (
	"cmp"
	"math/bits"
	"slices"
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
// a fact with no bits left is durable.
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
// pmem.Tracker.Violations' classification of each micro-state.
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

// maxStackDepth caps relative call-chain length so recursive programs
// reach a summary fixpoint; frames beyond the cap are not appended (the
// outermost context is dropped, which only coarsens report deduplication).
const maxStackDepth = 16

// fact is one tracked may-PM store site, keyed by its (relative) call
// chain within the function being analyzed. Facts created in callees enter
// callers through exit facts with the call frame appended, so at the entry
// function the chain is absolute and matches the dynamic trace's shape
// (innermost frame first). A function numbers its facts 0, 1, ... in the
// order it first sees them; a state is indexed by that number.
type fact struct {
	id    int32
	chain chainID

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
	objs   objSet
	anyObj bool

	// Resolved static line range (root allocation + cache-line interval)
	// when the address is a constant offset from a line-aligned PM root.
	lineOK         bool
	root           ir.Value
	lineLo, lineHi int64

	// flushSites collects the flush instructions that may have flushed this
	// fact — the insertion points for fence-only fixes. For non-temporal
	// stores the site is the store itself. A fact adopted from a callee
	// shares the callee fact's set until it gains a site of its own.
	flushSites siteSet
}

// factState is a dense dataflow state over one function's facts: fact
// i's stateBits are byte i%8 of word i/8, and words past the end are
// zero. Dense beats sorted (id, bits) pairs on both shapes that matter:
// at their fixpoints, redis-pmem's block states hold 58% of their
// function's facts live (trace_main: 646 of 1,051) and the layered
// module's 50%, so a byte per fact is smaller than an 8-byte pair per
// live fact, and a join is a loop over words.
type factState []uint64

const (
	// Per-byte masks of the state bits, replicated into all eight lanes.
	laneDirty   = 0x0101010101010101 * uint64(stDirty)
	laneDirtyF  = 0x0101010101010101 * uint64(stDirtyFenced)
	laneFlushed = 0x0101010101010101 * uint64(stFlushed)
)

func (st factState) get(id int32) stateBits {
	if w := int(id >> 3); w < len(st) {
		return stateBits(st[w] >> (uint(id&7) * 8))
	}
	return 0
}

// set replaces fact id's bits, growing the state when needed.
func (st *factState) set(id int32, b stateBits) {
	w, sh := int(id>>3), uint(id&7)*8
	if w >= len(*st) {
		if b == 0 {
			return
		}
		*st = append(*st, make(factState, w+1-len(*st))...)
	}
	(*st)[w] = (*st)[w]&^(0xff<<sh) | uint64(b)<<sh
}

func (st *factState) or(id int32, b stateBits) { st.set(id, st.get(id)|b) }

// joinInto unions src into dst and reports whether dst changed.
func joinInto(dst *factState, src factState) bool {
	if len(*dst) < len(src) {
		*dst = append(*dst, make(factState, len(src)-len(*dst))...)
	}
	d := *dst
	changed := false
	for i, w := range src {
		if n := d[i] | w; n != d[i] {
			d[i] = n
			changed = true
		}
	}
	return changed
}

// fence applies a certain fence to every fact: flushed instances drain
// to durable, dirty instances become dirty-fenced.
func (st factState) fence() {
	for i, w := range st {
		st[i] = ((w | w>>1) & laneDirty) << 1 // stDirty|stDirtyFenced → stDirtyFenced
	}
}

// any reports whether some fact holds one of the bits in lanes.
func (st factState) any(lanes uint64) bool {
	for _, w := range st {
		if w&lanes != 0 {
			return true
		}
	}
	return false
}

// each calls fn for every fact with bits set, in fact order; fn may
// change the bits of the fact it is given.
func (st factState) each(fn func(id int32, b stateBits)) {
	for i := range st {
		for w := st[i]; w != 0; {
			lane := bits.TrailingZeros64(w) &^ 7
			w &^= 0xff << lane
			fn(int32(i*8+lane/8), stateBits(st[i]>>lane))
		}
	}
}

// objSet is a sorted set of alias object IDs. Sets are never mutated once
// built, so facts and flush effects share them freely.
type objSet []int32

func (a objSet) intersects(b objSet) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// siteSet is a sorted set of interned frame IDs (flush sites). Like
// objSet it is never mutated once built: adding to it returns a new set,
// so a fact can share its callee fact's sites, and a report its fact's.
type siteSet []int32

// with returns s plus x, or s itself when x is already in it.
func (s siteSet) with(x int32) siteSet {
	i, found := slices.BinarySearch(s, x)
	if found {
		return s
	}
	out := make(siteSet, len(s)+1)
	copy(out, s[:i])
	out[i] = x
	copy(out[i+1:], s[i:])
	return out
}

// union returns s ∪ o, reusing s when o adds nothing and o when s is
// empty.
func (s siteSet) union(o siteSet) siteSet {
	if len(s) == 0 {
		return o
	}
	missing := 0
	for _, x := range o {
		if _, found := slices.BinarySearch(s, x); !found {
			missing++
		}
	}
	if missing == 0 {
		return s
	}
	out := make(siteSet, 0, len(s)+missing)
	i, j := 0, 0
	for i < len(s) || j < len(o) {
		switch {
		case j == len(o) || i < len(s) && s[i] < o[j]:
			out = append(out, s[i])
			i++
		case i == len(s) || o[j] < s[i]:
			out = append(out, o[j])
			j++
		default:
			out = append(out, s[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// chainSet is a set of chains kept in chain-ID order. Unlike siteSet it
// has one owner, which inserts in place.
type chainSet []chainID

func (s *chainSet) add(c chainID) {
	i, found := slices.BinarySearch(*s, c)
	if !found {
		*s = slices.Insert(*s, i, c)
	}
}

// chainID names an interned call chain; 0 is the empty chain.
type chainID int32

// chainTable interns frames and call chains for one analysis run. A chain
// is a (frame, prefix chain) pair: its outermost frame and the chain it
// extends, so appending a caller frame is one lookup and no copy. The
// []trace.Frame and func@id; forms of a chain are built only on demand —
// for the summary store's canonical form, the SCC signature and the
// order reports are exported in — and cached.
type chainTable struct {
	frames []trace.Frame
	// frameRows[f][id] is 1 + the frame of function f's instruction id
	// (0: none yet); lastFunc and lastRow cache the row last used, since
	// frames come in runs from one function.
	frameRows map[string][]int32
	lastFunc  string
	lastRow   []int32
	nodes     []chainNode
	idx       map[uint64]chainID
	stacks    [][]trace.Frame
	keys      []string
}

type chainNode struct {
	frame  int32
	prefix chainID
	depth  int32
}

func newChainTable() *chainTable {
	return &chainTable{
		frameRows: make(map[string][]int32),
		nodes:     []chainNode{{frame: -1}},
		idx:       make(map[uint64]chainID),
	}
}

// frame interns fr by its (function, instruction) site. Instruction IDs
// are small and dense (ir.Func.Renumber), so each function's frames are
// a row indexed by ID.
func (t *chainTable) frame(fr trace.Frame) int32 {
	if fr.Func != t.lastFunc || t.lastRow == nil {
		t.lastFunc, t.lastRow = fr.Func, t.frameRows[fr.Func]
	}
	if fr.InstrID < len(t.lastRow) {
		if id := t.lastRow[fr.InstrID]; id != 0 {
			return id - 1
		}
	} else {
		t.lastRow = append(t.lastRow, make([]int32, fr.InstrID+1-len(t.lastRow))...)
		t.frameRows[fr.Func] = t.lastRow
	}
	id := int32(len(t.frames))
	t.frames = append(t.frames, fr)
	t.lastRow[fr.InstrID] = id + 1
	return id
}

// siteOf interns fe's flush site on first use.
func (t *chainTable) siteOf(fe *flushEffect) int32 {
	if fe.site < 0 {
		fe.site = t.frame(fe.canon.Site)
	}
	return fe.site
}

// push extends chain c with an outer frame, respecting the depth cap.
func (t *chainTable) push(c chainID, frame int32) chainID {
	n := t.nodes[c]
	if n.depth >= maxStackDepth {
		return c
	}
	k := uint64(uint32(c))<<32 | uint64(uint32(frame))
	if id, ok := t.idx[k]; ok {
		return id
	}
	id := chainID(len(t.nodes))
	t.nodes = append(t.nodes, chainNode{frame: frame, prefix: c, depth: n.depth + 1})
	t.idx[k] = id
	return id
}

// intern returns the chain of a stack (innermost frame first). The stack
// then serves as the chain's []trace.Frame form, so it must not be
// modified afterwards.
func (t *chainTable) intern(stack []trace.Frame) chainID {
	c := chainID(0)
	for _, fr := range stack {
		c = t.push(c, t.frame(fr))
	}
	if c != 0 && int(t.nodes[c].depth) == len(stack) && (int(c) >= len(t.stacks) || t.stacks[c] == nil) {
		t.cacheStack(c, stack[:len(stack):len(stack)])
	}
	return c
}

// stack returns chain c's frames, innermost first; nil for the empty
// chain. The slice is shared and must not be modified.
func (t *chainTable) stack(c chainID) []trace.Frame {
	if c == 0 {
		return nil
	}
	if int(c) < len(t.stacks) && t.stacks[c] != nil {
		return t.stacks[c]
	}
	n := t.nodes[c]
	out := make([]trace.Frame, n.depth)
	for i, x := n.depth-1, c; i >= 0; i-- {
		out[i] = t.frames[t.nodes[x].frame]
		x = t.nodes[x].prefix
	}
	t.cacheStack(c, out)
	return out
}

func (t *chainTable) cacheStack(c chainID, stack []trace.Frame) {
	if len(t.stacks) < len(t.nodes) {
		t.stacks = append(t.stacks, make([][]trace.Frame, len(t.nodes)-len(t.stacks))...)
	}
	t.stacks[c] = stack
}

// sites returns a site set's frames ordered by (function, instruction);
// never nil.
func (t *chainTable) sites(s siteSet) []trace.Frame {
	out := make([]trace.Frame, 0, len(s))
	for _, id := range s {
		out = append(out, t.frames[id])
	}
	slices.SortFunc(out, func(a, b trace.Frame) int {
		if c := strings.Compare(a.Func, b.Func); c != 0 {
			return c
		}
		return cmp.Compare(a.InstrID, b.InstrID)
	})
	return out
}

// siteSetOf interns frames as a site set.
func (t *chainTable) siteSetOf(frames []trace.Frame) siteSet {
	if len(frames) == 0 {
		return nil
	}
	out := make(siteSet, len(frames))
	for i, fr := range frames {
		out[i] = t.frame(fr)
	}
	slices.Sort(out)
	return out
}

// key renders chain c in the func@id; form pmcheck uses for dynamic
// stacks, whose string order is the order reports are exported in.
func (t *chainTable) key(c chainID) string {
	if c == 0 {
		return ""
	}
	if int(c) < len(t.keys) && t.keys[c] != "" {
		return t.keys[c]
	}
	n := t.nodes[c]
	fr := t.frames[n.frame]
	k := t.key(n.prefix) + fr.Func + "@" + strconv.Itoa(fr.InstrID) + ";"
	if len(t.keys) < len(t.nodes) {
		t.keys = append(t.keys, make([]string, len(t.nodes)-len(t.keys))...)
	}
	t.keys[c] = k
	return k
}

// sortedStacks renders a chain set as stacks in the order of their
// func@id; keys; nil when empty.
func (t *chainTable) sortedStacks(cs chainSet) [][]trace.Frame {
	if len(cs) == 0 {
		return nil
	}
	sorted := slices.Clone(cs)
	slices.SortFunc(sorted, func(a, b chainID) int { return strings.Compare(t.key(a), t.key(b)) })
	out := make([][]trace.Frame, len(sorted))
	for i, c := range sorted {
		out[i] = t.stack(c)
	}
	return out
}
