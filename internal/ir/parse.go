package ir

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"
)

// ParseModule parses the textual IR form produced by Print. It exists so
// corpus programs and fixed modules can be stored, diffed and reloaded as
// text, mirroring how the paper's artifact works with LLVM bitcode files.
//
// It scans the text in place. A first pass reads the top-level lines in
// order (structs, globals, declarations and function headers, so bodies
// can call forward) and walks each function body to its closing brace,
// counting its blocks, instructions, operands, successors, constants and
// ptradd offsets. The module's slabs are allocated once from the sums,
// and a second pass parses each body into its own run of them, as
// CloneModule copies one body into per-function slabs: a parse makes a
// few allocations per function instead of several per instruction.
// Names and locations are substrings of src.
func ParseModule(src string) (*Module, error) {
	p := &parser{src: src}
	m, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("ir: line %d: %w", p.ln, err)
	}
	return m, nil
}

type parser struct {
	src string
	pos int // offset of the next unread line; len(src)+1 once all are read
	ln  int // 1-based number of the last line read
	mod *Module
	// body is the per-body state, reused from one function body to the
	// next so a module parse allocates its maps once.
	body bodyState
}

// pendingBody is a function body found by the first pass.
type pendingBody struct {
	fn      *Func
	pos, ln int // the parser's position just after the header line
	close   int // line number of the closing brace
	n       bodyCounts
}

// next returns the next line that is neither blank nor a comment, with
// surrounding white space and any trailing " ;" comment removed.
func (p *parser) next() (string, bool) {
	for p.pos <= len(p.src) {
		rest := p.src[p.pos:]
		end := strings.IndexByte(rest, '\n')
		if end < 0 {
			end = len(rest)
		}
		p.pos += end + 1
		p.ln++
		line := trimSpace(rest[:end])
		if line == "" || line[0] == ';' {
			continue
		}
		if i := strings.Index(line, " ;"); i >= 0 {
			line = trimSpace(line[:i])
		}
		return line, true
	}
	return "", false
}

func (p *parser) parse() (*Module, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "module ") {
		return nil, fmt.Errorf("expected 'module <name>' header")
	}
	p.mod = NewModule(trimSpace(line[len("module "):]))
	var bodies []pendingBody
	for {
		line, ok := p.next()
		if !ok {
			break
		}
		switch {
		case strings.HasPrefix(line, "struct %"):
			if err := p.parseStruct(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "global @"), strings.HasPrefix(line, "pm global @"):
			if err := p.parseGlobal(line); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "declare @"):
			if _, err := p.addFunc(line[len("declare "):]); err != nil {
				return nil, err
			}
		case strings.HasPrefix(line, "func @"):
			fn, err := p.addFunc(trimSpace(strings.TrimSuffix(line[len("func "):], "{")))
			if err != nil {
				return nil, err
			}
			pb := pendingBody{fn: fn, pos: p.pos, ln: p.ln}
			var sc bodyScan
			for {
				l, ok := p.next()
				if !ok {
					return nil, fmt.Errorf("unterminated body of @%s", fn.Name)
				}
				if l == "}" {
					break
				}
				sc.add(l)
			}
			pb.n, pb.close = sc.n, p.ln
			bodies = append(bodies, pb)
		default:
			return nil, fmt.Errorf("unexpected top-level line %q", line)
		}
	}
	var total bodyCounts
	for _, pb := range bodies {
		total.blocks += pb.n.blocks
		total.instrs += pb.n.instrs
		total.args += pb.n.args
		total.consts += pb.n.consts
		total.succs += pb.n.succs
		total.offsets += pb.n.offsets
		total.locs += pb.n.locs
	}
	p.body.alloc(total)
	for i := range bodies {
		if err := p.parseBody(&bodies[i]); err != nil {
			return nil, err
		}
		bodies[i].fn.Renumber()
	}
	return p.mod, nil
}

// parseStruct handles: struct %Name { f1: ty, f2: ty }
func (p *parser) parseStruct(line string) error {
	rest := line[len("struct %"):]
	open := strings.IndexByte(rest, '{')
	close := strings.LastIndexByte(rest, '}')
	if open < 0 || close < open {
		return fmt.Errorf("malformed struct definition %q", line)
	}
	name := trimSpace(rest[:open])
	if p.mod.Struct(name) != nil {
		return fmt.Errorf("duplicate struct %%%s", name)
	}
	var fields []Field
	if inner := trimSpace(rest[open+1 : close]); inner != "" {
		fields = make([]Field, 0, strings.Count(inner, ",")+1)
		for part, more := inner, true; more; {
			var f string
			f, part, more = strings.Cut(part, ",")
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return fmt.Errorf("malformed struct field %q", f)
			}
			ty, err := p.parseType(trimSpace(f[colon+1:]))
			if err != nil {
				return err
			}
			fields = append(fields, Field{Name: trimSpace(f[:colon]), Type: ty})
		}
	}
	p.mod.AddStruct(NewStruct(name, fields))
	return nil
}

// parseGlobal handles: [pm] global @name: type [= x"hex"]
func (p *parser) parseGlobal(line string) error {
	g := &Global{}
	rest := line
	if strings.HasPrefix(rest, "pm ") {
		g.PM = true
		rest = rest[len("pm "):]
	}
	rest = rest[len("global @"):]
	colon := strings.IndexByte(rest, ':')
	if colon < 0 {
		return fmt.Errorf("malformed global %q", line)
	}
	g.Name = trimSpace(rest[:colon])
	rest = trimSpace(rest[colon+1:])
	if eq := strings.IndexByte(rest, '='); eq >= 0 {
		init := trimSpace(rest[eq+1:])
		rest = trimSpace(rest[:eq])
		if !strings.HasPrefix(init, `x"`) || !strings.HasSuffix(init, `"`) {
			return fmt.Errorf("malformed global initializer %q", init)
		}
		raw, err := hex.DecodeString(init[2 : len(init)-1])
		if err != nil {
			return fmt.Errorf("bad hex initializer: %w", err)
		}
		g.Init = raw
	}
	ty, err := p.parseType(rest)
	if err != nil {
		return err
	}
	g.Elem = ty
	if p.mod.Global(g.Name) != nil {
		return fmt.Errorf("duplicate global @%s", g.Name)
	}
	p.mod.AddGlobal(g)
	return nil
}

// addFunc parses a signature and registers the function it declares.
func (p *parser) addFunc(sig string) (*Func, error) {
	fn, err := p.parseSig(sig)
	if err != nil {
		return nil, err
	}
	if p.mod.Func(fn.Name) != nil {
		return nil, fmt.Errorf("duplicate function @%s", fn.Name)
	}
	return p.mod.AddFunc(fn), nil
}

// parseSig handles: @name(%p: ty, ...) -> ty
func (p *parser) parseSig(s string) (*Func, error) {
	s = strings.TrimPrefix(s, "@")
	open := strings.IndexByte(s, '(')
	close := strings.LastIndexByte(s, ')')
	arrow := strings.LastIndex(s, "->")
	if open < 0 || close < open || arrow < close {
		return nil, fmt.Errorf("malformed signature %q", s)
	}
	name := trimSpace(s[:open])
	ret, err := p.parseType(trimSpace(s[arrow+2:]))
	if err != nil {
		return nil, err
	}
	var params []*Param
	if inner := trimSpace(s[open+1 : close]); inner != "" {
		n := strings.Count(inner, ",") + 1
		slab := make([]Param, n)
		params = make([]*Param, n)
		i := 0
		for part, more := inner, true; more; i++ {
			var f string
			f, part, more = strings.Cut(part, ",")
			colon := strings.IndexByte(f, ':')
			if colon < 0 {
				return nil, fmt.Errorf("malformed parameter %q", f)
			}
			pname := trimSpace(f[:colon])
			if !strings.HasPrefix(pname, "%") {
				return nil, fmt.Errorf("parameter name %q must start with %%", pname)
			}
			ty, err := p.parseType(trimSpace(f[colon+1:]))
			if err != nil {
				return nil, err
			}
			slab[i] = Param{Name: pname[1:], Ty: ty}
			params[i] = &slab[i]
		}
	}
	return NewFunc(name, ret, params...), nil
}

func (p *parser) parseType(s string) (Type, error) {
	switch s {
	case "void":
		return Void, nil
	case "i1":
		return I1, nil
	case "i8":
		return I8, nil
	case "i64":
		return I64, nil
	case "ptr":
		return Ptr, nil
	}
	if strings.HasPrefix(s, "%") {
		st := p.mod.Struct(s[1:])
		if st == nil {
			return nil, fmt.Errorf("unknown struct type %s", s)
		}
		return st, nil
	}
	if strings.HasPrefix(s, "[") && strings.HasSuffix(s, "]") {
		inner := s[1 : len(s)-1]
		x := strings.Index(inner, " x ")
		if x < 0 {
			return nil, fmt.Errorf("malformed array type %q", s)
		}
		n, err := strconv.ParseInt(trimSpace(inner[:x]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed array length in %q", s)
		}
		elem, err := p.parseType(trimSpace(inner[x+len(" x "):]))
		if err != nil {
			return nil, err
		}
		return Array(elem, n), nil
	}
	return nil, fmt.Errorf("unknown type %q", s)
}

// bodyCounts sizes a body's slabs. The first pass counts blocks and
// instructions exactly; the rest are upper bounds for printed IR, and a
// body that needs more (only hand-written text can) allocates the excess
// one object at a time.
type bodyCounts struct {
	blocks, instrs, results, args, consts, succs, offsets, locs int
}

// bodyScan counts a body's lines.
type bodyScan struct {
	n bodyCounts
	// lastLoc is the location text of the last instruction that had one,
	// and lastOffsets the offsets text of the last ptradd: consecutive
	// instructions share equal ones, so only a change takes a new one.
	lastLoc, lastOffsets string
}

// add counts line, a body line other than the closing brace.
func (sc *bodyScan) add(line string) {
	c := &sc.n
	if isLabel(line) {
		c.blocks++
		return
	}
	c.instrs++
	if i := strings.LastIndex(line, " !"); i >= 0 {
		if loc := line[i+2:]; loc != sc.lastLoc {
			sc.lastLoc = loc
			c.locs++
		}
		line = line[:i]
	}
	if strings.HasPrefix(line, "%") {
		c.results++
		if eq := strings.IndexByte(line, '='); eq >= 0 {
			line = trimSpace(line[eq+1:])
		}
	}
	mnemonic, rest, _ := strings.Cut(line, " ")
	args, consts := 2, constTokens(rest)
	switch mnemonic {
	case "alloca", "fence":
		return
	case "jmp":
		c.succs++
		return
	case "br":
		args = 1
		c.succs += 2
	case "ret":
		if rest == "void" {
			return
		}
		args = 1
	case "load", "flush", "join", "atomicload", "zext", "trunc", "ptrtoint", "inttoptr":
		args = 1
	case "ptradd":
		consts -= 2 // the scale and displacement
		_, offsets, _ := strings.Cut(rest, ",")
		_, offsets, _ = strings.Cut(offsets, ",")
		if offsets == "" || offsets != sc.lastOffsets {
			sc.lastOffsets = offsets
			c.offsets++
		}
	case "atomiccas":
		args = 3
	case "call", "spawn":
		args = 0
		if open := strings.IndexByte(rest, '('); open >= 0 && open+1 < len(rest) && rest[open+1] != ')' {
			args = strings.Count(rest[open:], ",") + 1
		}
	}
	c.args += args
	c.consts += max(0, min(args, consts))
}

// constTokens counts the words of an instruction's operand text that
// read as constants: those that start with a digit or sign, or are null.
func constTokens(s string) int {
	n := 0
	for i := 0; i < len(s); i++ {
		if i > 0 && s[i-1] != ' ' && s[i-1] != ',' && s[i-1] != '(' {
			continue
		}
		if c := s[i]; c >= '0' && c <= '9' || c == '-' || c == '+' || strings.HasPrefix(s[i:], "null") {
			n++
		}
	}
	return n
}

// isLabel reports whether a body line is a block label.
func isLabel(line string) bool {
	return strings.HasSuffix(line, ":") && strings.IndexByte(line, ' ') < 0
}

// bodyState is the parser state for one function body: the maps from
// names to values and to blocks, the block references to resolve at the
// end of the body, and the slabs the body's objects are carved from.
type bodyState struct {
	vals   scratchMap[string, Value]
	labels scratchMap[string, *Block] // the first block of each name
	fixups []blockFixup
	// parts backs splitArgs' result.
	parts []string

	// The unused rest of the module's slabs, sized by the first pass.
	instrs    []Instr
	ptrs      []*Instr
	blocks    []Block
	blockPtrs []*Block
	args      []Value
	consts    []Const
	succs     []*Block
	offsets   []ptrOffsets
	locs      []Loc

	// loc was parsed from locText, the location of the body's last
	// instruction that had one, and offs belongs to its last ptradd.
	locText string
	loc     *Loc
	offs    *ptrOffsets
}

// alloc allocates slabs for n.
func (st *bodyState) alloc(n bodyCounts) {
	st.instrs = make([]Instr, n.instrs)
	st.ptrs = make([]*Instr, n.instrs)
	st.blocks = make([]Block, n.blocks)
	st.blockPtrs = make([]*Block, n.blocks)
	st.args = make([]Value, n.args)
	st.consts = make([]Const, n.consts)
	st.succs = make([]*Block, n.succs)
	st.offsets = make([]ptrOffsets, n.offsets)
	st.locs = make([]Loc, n.locs)
}

// carve takes the first n elements of *slab, with capacity n, so that
// appending to one function's or block's slice never runs into the next.
// It returns nil when *slab holds fewer than n.
func carve[S ~[]E, E any](slab *S, n int) S {
	if len(*slab) < n {
		return nil
	}
	s := (*slab)[:n:n]
	*slab = (*slab)[n:]
	return s
}

// take returns the first element of *slab and drops it from the slab, or
// a new element once the slab is used up.
func take[E any](slab *[]E) *E {
	if len(*slab) == 0 {
		return new(E)
	}
	e := &(*slab)[0]
	*slab = (*slab)[1:]
	return e
}

type blockFixup struct {
	in   *Instr
	slot int
	name string
}

// takeArgs returns an operand slice of length n with capped capacity.
func (st *bodyState) takeArgs(n int) []Value {
	if a := carve(&st.args, n); a != nil {
		return a
	}
	return make([]Value, n)
}

// constant returns a new constant, so no two operands share one.
func (st *bodyState) constant(ty Type, v int64) *Const {
	c := take(&st.consts)
	*c = Const{Ty: ty, Val: v}
	return c
}

// setSuccs gives a branch n unresolved successors, to be filled in by
// the body's fixups.
func (st *bodyState) setSuccs(in *Instr, n int) {
	succs := carve(&st.succs, n)
	if succs == nil {
		succs = make([]*Block, n)
	}
	in.ext = succArray(succs)
}

// newLoc returns a new location, nil for the zero one.
func (st *bodyState) newLoc(l Loc) *Loc {
	if l.IsZero() {
		return nil
	}
	p := take(&st.locs)
	*p = l
	return p
}

// setOffsets sets a ptradd's scale and displacement, shared with the
// body's previous ptradd when they are equal.
func (st *bodyState) setOffsets(in *Instr, scale, disp int64) {
	o := ptrOffsets{scale, disp}
	if st.offs == nil || *st.offs != o {
		st.offs = take(&st.offsets)
		*st.offs = o
	}
	in.ext = st.offs
}

func (p *parser) parseBody(pb *pendingBody) error {
	fn, n := pb.fn, pb.n
	st := &p.body
	vals := st.vals.reset(len(fn.Params) + n.results)
	labels := st.labels.reset(n.blocks)
	st.fixups = st.fixups[:0]
	st.locText, st.loc, st.offs = "", nil, nil
	for _, prm := range fn.Params {
		vals[prm.Name] = prm
	}
	// The first pass counted this body's blocks and instructions exactly.
	instrs := carve(&st.instrs, n.instrs)
	ptrs := carve(&st.ptrs, n.instrs)[:0]
	blocks := carve(&st.blocks, n.blocks)
	if n.blocks > 0 {
		fn.Blocks = carve(&st.blockPtrs, n.blocks)[:0]
	}
	// cur's instructions are ptrs[first:] until the next label.
	var cur *Block
	first := 0
	endBlock := func() {
		if cur != nil {
			cur.Instrs = ptrs[first:len(ptrs):len(ptrs)]
		}
	}
	p.pos, p.ln = pb.pos, pb.ln
	for {
		line, _ := p.next()
		if p.ln >= pb.close {
			break
		}
		if isLabel(line) {
			endBlock()
			cur, first = &blocks[len(fn.Blocks)], len(ptrs)
			*cur = Block{Name: line[:len(line)-1], fn: fn}
			fn.Blocks = append(fn.Blocks, cur)
			if _, dup := labels[cur.Name]; !dup {
				labels[cur.Name] = cur
			}
			continue
		}
		if cur == nil {
			return fmt.Errorf("instruction before first block label in @%s", fn.Name)
		}
		in := &instrs[len(ptrs)]
		in.blk = cur
		if err := p.parseInstr(st, in, line); err != nil {
			return fmt.Errorf("in @%s: %w", fn.Name, err)
		}
		ptrs = append(ptrs, in)
		if in.HasResult() {
			if _, dup := vals[in.Name]; dup {
				return fmt.Errorf("in @%s: duplicate value %%%s", fn.Name, in.Name)
			}
			vals[in.Name] = in
		}
	}
	endBlock()
	p.ln = pb.close
	for _, fx := range st.fixups {
		blk := labels[fx.name]
		if blk == nil {
			return fmt.Errorf("in @%s: unknown block ^%s", fn.Name, fx.name)
		}
		fx.in.Succs()[fx.slot] = blk
	}
	return nil
}

// parseInstr parses one instruction line into in, whose block is set.
func (p *parser) parseInstr(st *bodyState, in *Instr, line string) error {
	// Split off the !file:line location suffix. Consecutive instructions
	// with the same location share it.
	if i := strings.LastIndex(line, " !"); i >= 0 {
		locStr := line[i+2:]
		line = trimSpace(line[:i])
		if locStr != st.locText {
			st.locText, st.loc = locStr, nil
			if j := strings.LastIndexByte(locStr, ':'); j >= 0 {
				n, err := strconv.Atoi(locStr[j+1:])
				if err != nil {
					return fmt.Errorf("malformed location %q", locStr)
				}
				st.loc = st.newLoc(Loc{File: locStr[:j], Line: n})
			}
		}
		in.loc = st.loc
	}
	// Split off the result name.
	if strings.HasPrefix(line, "%") {
		eq := strings.IndexByte(line, '=')
		if eq < 0 {
			return fmt.Errorf("malformed instruction %q", line)
		}
		in.Name = trimSpace(line[1:eq])
		line = trimSpace(line[eq+1:])
	}
	mnemonic, rest := line, ""
	if sp := strings.IndexByte(line, ' '); sp >= 0 {
		mnemonic, rest = line[:sp], trimSpace(line[sp+1:])
	}
	in.Ty = Void
	switch mnemonic {
	case "alloca":
		ty, err := p.parseType(rest)
		if err != nil {
			return err
		}
		in.Op, in.Ty = OpAlloca, Ptr
		in.SetAllocTy(ty)
	case "load":
		parts := st.splitArgs(rest)
		if len(parts) != 2 {
			return fmt.Errorf("malformed load %q", rest)
		}
		ty, err := p.parseType(parts[0])
		if err != nil {
			return err
		}
		in.Op, in.Ty = OpLoad, ty
		return p.parseArgs(st, in, parts[1:])
	case "store", "ntstore":
		parts := st.splitArgs(rest)
		if len(parts) != 2 {
			return fmt.Errorf("malformed store %q", rest)
		}
		in.Op = OpStore
		if mnemonic == "ntstore" {
			in.Op = OpNTStore
		}
		if err := p.parseArgs(st, in, parts); err != nil {
			return err
		}
		in.SetStoreTy(in.Args[0].Type())
	case "ptradd":
		parts := st.splitArgs(rest)
		if len(parts) != 4 {
			return fmt.Errorf("malformed ptradd %q", rest)
		}
		in.Op, in.Ty = OpPtrAdd, Ptr
		if err := p.parseArgs(st, in, parts[:2]); err != nil {
			return err
		}
		scale, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return err
		}
		disp, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return err
		}
		st.setOffsets(in, scale, disp)
	case "call", "spawn":
		open := strings.IndexByte(rest, '(')
		close := strings.LastIndexByte(rest, ')')
		if !strings.HasPrefix(rest, "@") || open < 0 || close < open {
			return fmt.Errorf("malformed %s %q", mnemonic, rest)
		}
		callee := p.mod.Func(rest[1:open])
		if callee == nil {
			if mnemonic == "spawn" {
				return fmt.Errorf("unknown spawn callee %s", rest[:open])
			}
			return fmt.Errorf("unknown callee %s", rest[:open])
		}
		in.Op, in.Ty = OpCall, callee.Ret
		if mnemonic == "spawn" {
			in.Op, in.Ty = OpSpawn, I64
		}
		in.ext = callee
		if inner := trimSpace(rest[open+1 : close]); inner != "" {
			return p.parseArgs(st, in, st.splitArgs(inner))
		}
	case "br":
		parts := st.splitArgs(rest)
		if len(parts) != 3 {
			return fmt.Errorf("malformed br %q", rest)
		}
		in.Op = OpBr
		if err := p.parseArgs(st, in, parts[:1]); err != nil {
			return err
		}
		st.setSuccs(in, 2)
		for i, bn := range parts[1:] {
			if !strings.HasPrefix(bn, "^") {
				return fmt.Errorf("malformed branch target %q", bn)
			}
			st.fixups = append(st.fixups, blockFixup{in: in, slot: i, name: bn[1:]})
		}
	case "jmp":
		if !strings.HasPrefix(rest, "^") {
			return fmt.Errorf("malformed jmp %q", rest)
		}
		in.Op = OpJmp
		st.setSuccs(in, 1)
		st.fixups = append(st.fixups, blockFixup{in: in, slot: 0, name: rest[1:]})
	case "ret":
		in.Op = OpRet
		if rest != "void" {
			return p.parseArgs(st, in, []string{rest})
		}
	case "flush":
		parts := st.splitArgs(rest)
		if len(parts) != 2 {
			return fmt.Errorf("malformed flush %q", rest)
		}
		switch parts[0] {
		case "clwb":
			in.FlushK = CLWB
		case "clflushopt":
			in.FlushK = CLFLUSHOPT
		case "clflush":
			in.FlushK = CLFLUSH
		default:
			return fmt.Errorf("unknown flush kind %q", parts[0])
		}
		in.Op = OpFlush
		return p.parseArgs(st, in, parts[1:])
	case "fence":
		switch rest {
		case "sfence":
			in.FenceK = SFENCE
		case "mfence":
			in.FenceK = MFENCE
		default:
			return fmt.Errorf("unknown fence kind %q", rest)
		}
		in.Op = OpFence
	case "join":
		in.Op, in.Ty = OpJoin, I64
		return p.parseArgs(st, in, []string{rest})
	case "atomicload":
		parts := st.splitArgs(rest)
		if len(parts) != 2 {
			return fmt.Errorf("malformed atomicload %q", rest)
		}
		ordStr, tail := field(parts[0])
		tyStr, tail := field(tail)
		if extra, _ := field(tail); tyStr == "" || extra != "" {
			return fmt.Errorf("malformed atomicload %q", rest)
		}
		ord, err := parseOrder(ordStr)
		if err != nil {
			return err
		}
		ty, err := p.parseType(tyStr)
		if err != nil {
			return err
		}
		in.Op, in.Order, in.Ty = OpAtomicLoad, ord, ty
		return p.parseArgs(st, in, parts[1:])
	case "atomicstore", "atomiccas":
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("malformed %s %q", mnemonic, rest)
		}
		ord, err := parseOrder(rest[:sp])
		if err != nil {
			return err
		}
		in.Op, in.Order, in.Ty = OpAtomicCAS, ord, I64
		operands := 3
		if mnemonic == "atomicstore" {
			in.Op, in.Ty, operands = OpAtomicStore, Void, 2
		}
		parts := st.splitArgs(trimSpace(rest[sp+1:]))
		if len(parts) != operands {
			return fmt.Errorf("malformed %s %q", mnemonic, rest)
		}
		if err := p.parseArgs(st, in, parts); err != nil {
			return err
		}
		if in.Op == OpAtomicStore {
			in.SetStoreTy(in.Args[0].Type())
		}
	case "atomicrmw":
		kind, tail := field(rest)
		ordStr, tail := field(tail)
		if third, _ := field(tail); third == "" {
			return fmt.Errorf("malformed atomicrmw %q", rest)
		}
		switch kind {
		case "add":
			in.RMWK = RMWAdd
		case "xchg":
			in.RMWK = RMWXchg
		default:
			return fmt.Errorf("unknown rmw kind %q", kind)
		}
		ord, err := parseOrder(ordStr)
		if err != nil {
			return err
		}
		// The operands follow "<kind> <order>" when one space separates
		// them; otherwise the order is taken for an operand's type.
		ops := rest[len(kind):]
		if len(ops) > len(ordStr) && ops[0] == ' ' && ops[1:1+len(ordStr)] == ordStr {
			ops = ops[1+len(ordStr):]
		}
		parts := st.splitArgs(trimSpace(ops))
		if len(parts) != 2 {
			return fmt.Errorf("malformed atomicrmw operands %q", rest)
		}
		in.Op, in.Order, in.Ty = OpAtomicRMW, ord, I64
		return p.parseArgs(st, in, parts)
	case "zext", "trunc", "ptrtoint", "inttoptr":
		toIdx := strings.LastIndex(rest, " to ")
		if toIdx < 0 {
			return fmt.Errorf("malformed cast %q", rest)
		}
		if err := p.parseArgs(st, in, []string{rest[:toIdx]}); err != nil {
			return err
		}
		to, err := p.parseType(trimSpace(rest[toIdx+len(" to "):]))
		if err != nil {
			return err
		}
		in.Ty = to
		switch mnemonic {
		case "zext":
			in.Op = OpZExt
		case "trunc":
			in.Op = OpTrunc
		case "ptrtoint":
			in.Op = OpPtrToInt
		case "inttoptr":
			in.Op = OpIntToPtr
		}
	default:
		op := opByName(mnemonic)
		if op == OpInvalid {
			return fmt.Errorf("unknown mnemonic %q", mnemonic)
		}
		// Binary op or comparison: "<op> <ty> %a, %b".
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("malformed %s %q", mnemonic, rest)
		}
		ty, err := p.parseType(rest[:sp])
		if err != nil {
			return err
		}
		parts := st.splitArgs(rest[sp+1:])
		if len(parts) != 2 {
			return fmt.Errorf("malformed %s operands %q", mnemonic, rest)
		}
		in.Op, in.Ty = op, ty
		if op.IsCmp() {
			in.Ty = I1
		}
		in.Args = st.takeArgs(2)
		for i, part := range parts {
			v, err := p.parseBare(st, part, ty)
			if err != nil {
				return err
			}
			in.Args[i] = v
		}
	}
	return nil
}

// parseArgs parses typed operands into in.Args.
func (p *parser) parseArgs(st *bodyState, in *Instr, parts []string) error {
	in.Args = st.takeArgs(len(parts))
	for i, part := range parts {
		v, err := p.parseOperand(st, part)
		if err != nil {
			return err
		}
		in.Args[i] = v
	}
	return nil
}

func parseOrder(s string) (MemOrder, error) {
	switch s {
	case "seqcst":
		return OrderSeqCst, nil
	case "acquire":
		return OrderAcquire, nil
	case "release":
		return OrderRelease, nil
	}
	return 0, fmt.Errorf("unknown memory order %q", s)
}

func opByName(s string) Op {
	for op := OpAdd; op <= OpGe; op++ {
		if opNames[op] == s {
			return op
		}
	}
	return OpInvalid
}

// splitArgs splits on top-level commas (the grammar has no nested commas
// outside call argument lists, which are handled separately). The result
// shares one buffer and is valid until the next call.
func (st *bodyState) splitArgs(s string) []string {
	out := st.parts[:0]
	depth := 0
	last := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, trimSpace(s[last:i]))
				last = i + 1
			}
		}
	}
	out = append(out, trimSpace(s[last:]))
	st.parts = out
	return out
}

// parseOperand parses a typed operand: "<ty> <val>" or the literal "null".
func (p *parser) parseOperand(st *bodyState, s string) (Value, error) {
	s = trimSpace(s)
	if s == "null" || s == "ptr null" {
		return st.constant(Ptr, 0), nil
	}
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("malformed operand %q", s)
	}
	ty, err := p.parseType(s[:sp])
	if err != nil {
		return nil, err
	}
	return p.parseBare(st, s[sp+1:], ty)
}

// parseBare parses an operand whose type is already known.
func (p *parser) parseBare(st *bodyState, s string, ty Type) (Value, error) {
	s = trimSpace(s)
	switch {
	case s == "null":
		return st.constant(Ptr, 0), nil
	case strings.HasPrefix(s, "%"):
		v, ok := st.vals.m[s[1:]]
		if !ok {
			return nil, fmt.Errorf("undefined value %s", s)
		}
		return v, nil
	case strings.HasPrefix(s, "@"):
		if g := p.mod.Global(s[1:]); g != nil {
			return g, nil
		}
		return nil, fmt.Errorf("unknown global %s", s)
	default:
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed constant %q", s)
		}
		return st.constant(ty, n), nil
	}
}

// trimSpace is strings.TrimSpace: it trims ASCII white space bytewise
// and hands an edge that is not ASCII to unicode.IsSpace.
func trimSpace(s string) string {
	start := 0
	for ; start < len(s); start++ {
		c := s[start]
		if c >= utf8.RuneSelf {
			return strings.TrimFunc(s[start:], unicode.IsSpace)
		}
		if !isASCIISpace(c) {
			break
		}
	}
	stop := len(s)
	for ; stop > start; stop-- {
		c := s[stop-1]
		if c >= utf8.RuneSelf {
			return strings.TrimRightFunc(s[start:stop], unicode.IsSpace)
		}
		if !isASCIISpace(c) {
			break
		}
	}
	return s[start:stop]
}

func isASCIISpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' || c == '\r'
}

// field returns the first white-space-separated word of s, as
// strings.Fields splits, and the text after it.
func field(s string) (word, rest string) {
	start := -1
	for i, r := range s {
		if unicode.IsSpace(r) {
			if start >= 0 {
				return s[start:i], s[i:]
			}
		} else if start < 0 {
			start = i
		}
	}
	if start < 0 {
		return "", ""
	}
	return s[start:], ""
}
