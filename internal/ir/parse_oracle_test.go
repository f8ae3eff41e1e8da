package ir

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"
)

// oracleParseModule is the line-splitting parser ParseModule replaced,
// kept as the oracle TestParseMatchesOracle and FuzzParseModule hold the
// byte scanner to: the same modules, the same accepted inputs and the
// same error lines.
func oracleParseModule(src string) (*Module, error) {
	p := &oracleParser{lines: strings.Split(src, "\n")}
	m, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("ir: line %d: %w", p.ln, err)
	}
	return m, nil
}

type oracleParser struct {
	lines []string
	ln    int // 1-based index of the line being parsed
	mod   *Module
	// body is the per-body state, reused from one function body to the
	// next so a module parse allocates it once.
	body oracleBodyEnv
}

func (p *oracleParser) next() (string, bool) {
	for p.ln < len(p.lines) {
		line := strings.TrimSpace(p.lines[p.ln])
		p.ln++
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		if i := strings.Index(line, " ;"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		return line, true
	}
	return "", false
}

func (p *oracleParser) parse() (*Module, error) {
	line, ok := p.next()
	if !ok || !strings.HasPrefix(line, "module ") {
		return nil, fmt.Errorf("expected 'module <name>' header")
	}
	p.mod = NewModule(strings.TrimSpace(strings.TrimPrefix(line, "module ")))

	// First pass: collect everything line-wise, creating function headers
	// so bodies can call forward. Bodies are remembered and parsed second.
	type pendingBody struct {
		fn    *Func
		start int // line index of first body line
		end   int // line index just past the body
	}
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
			fn, err := p.parseSig(strings.TrimPrefix(line, "declare "))
			if err != nil {
				return nil, err
			}
			if p.mod.Func(fn.Name) != nil {
				return nil, fmt.Errorf("duplicate function @%s", fn.Name)
			}
			p.mod.AddFunc(fn)
		case strings.HasPrefix(line, "func @"):
			header := strings.TrimSuffix(strings.TrimPrefix(line, "func "), "{")
			fn, err := p.parseSig(strings.TrimSpace(header))
			if err != nil {
				return nil, err
			}
			if p.mod.Func(fn.Name) != nil {
				return nil, fmt.Errorf("duplicate function @%s", fn.Name)
			}
			p.mod.AddFunc(fn)
			start := p.ln
			depth := 1
			for depth > 0 {
				l, ok := p.next()
				if !ok {
					return nil, fmt.Errorf("unterminated body of @%s", fn.Name)
				}
				if l == "}" {
					depth--
				}
			}
			bodies = append(bodies, pendingBody{fn: fn, start: start, end: p.ln - 1})
		default:
			return nil, fmt.Errorf("unexpected top-level line %q", line)
		}
	}
	for _, pb := range bodies {
		if err := p.parseBody(pb.fn, pb.start, pb.end); err != nil {
			return nil, err
		}
		pb.fn.Renumber()
	}
	return p.mod, nil
}

// parseStruct handles: struct %Name { f1: ty, f2: ty }
func (p *oracleParser) parseStruct(line string) error {
	rest := strings.TrimPrefix(line, "struct %")
	open := strings.Index(rest, "{")
	close := strings.LastIndex(rest, "}")
	if open < 0 || close < open {
		return fmt.Errorf("malformed struct definition %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	if p.mod.Struct(name) != nil {
		return fmt.Errorf("duplicate struct %%%s", name)
	}
	var fields []Field
	inner := strings.TrimSpace(rest[open+1 : close])
	if inner != "" {
		for _, part := range strings.Split(inner, ",") {
			nv := strings.SplitN(part, ":", 2)
			if len(nv) != 2 {
				return fmt.Errorf("malformed struct field %q", part)
			}
			ty, err := p.parseType(strings.TrimSpace(nv[1]))
			if err != nil {
				return err
			}
			fields = append(fields, Field{Name: strings.TrimSpace(nv[0]), Type: ty})
		}
	}
	p.mod.AddStruct(NewStruct(name, fields))
	return nil
}

// parseGlobal handles: [pm] global @name: type [= x"hex"]
func (p *oracleParser) parseGlobal(line string) error {
	g := &Global{}
	rest := line
	if strings.HasPrefix(rest, "pm ") {
		g.PM = true
		rest = strings.TrimPrefix(rest, "pm ")
	}
	rest = strings.TrimPrefix(rest, "global @")
	colon := strings.Index(rest, ":")
	if colon < 0 {
		return fmt.Errorf("malformed global %q", line)
	}
	g.Name = strings.TrimSpace(rest[:colon])
	rest = strings.TrimSpace(rest[colon+1:])
	if eq := strings.Index(rest, "="); eq >= 0 {
		init := strings.TrimSpace(rest[eq+1:])
		rest = strings.TrimSpace(rest[:eq])
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

// parseSig handles: @name(%p: ty, ...) -> ty
func (p *oracleParser) parseSig(s string) (*Func, error) {
	s = strings.TrimPrefix(s, "@")
	open := strings.Index(s, "(")
	close := strings.LastIndex(s, ")")
	arrow := strings.LastIndex(s, "->")
	if open < 0 || close < open || arrow < close {
		return nil, fmt.Errorf("malformed signature %q", s)
	}
	name := strings.TrimSpace(s[:open])
	ret, err := p.parseType(strings.TrimSpace(s[arrow+2:]))
	if err != nil {
		return nil, err
	}
	var params []*Param
	inner := strings.TrimSpace(s[open+1 : close])
	if inner != "" {
		for _, part := range strings.Split(inner, ",") {
			nv := strings.SplitN(part, ":", 2)
			if len(nv) != 2 {
				return nil, fmt.Errorf("malformed parameter %q", part)
			}
			pname := strings.TrimSpace(nv[0])
			if !strings.HasPrefix(pname, "%") {
				return nil, fmt.Errorf("parameter name %q must start with %%", pname)
			}
			ty, err := p.parseType(strings.TrimSpace(nv[1]))
			if err != nil {
				return nil, err
			}
			params = append(params, &Param{Name: pname[1:], Ty: ty})
		}
	}
	return NewFunc(name, ret, params...), nil
}

func (p *oracleParser) parseType(s string) (Type, error) {
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
		x := strings.SplitN(inner, " x ", 2)
		if len(x) != 2 {
			return nil, fmt.Errorf("malformed array type %q", s)
		}
		n, err := strconv.ParseInt(strings.TrimSpace(x[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("malformed array length in %q", s)
		}
		elem, err := p.parseType(strings.TrimSpace(x[1]))
		if err != nil {
			return nil, err
		}
		return Array(elem, n), nil
	}
	return nil, fmt.Errorf("unknown type %q", s)
}

// oracleBodyEnv is the parser state for one function body.
type oracleBodyEnv struct {
	fn   *Func
	vals scratchMap[string, Value]
	// fixups are (^name, instr, succ-slot) block references resolved at
	// the end of the body.
	fixups []oracleFixup
	// parts backs splitArgs' result.
	parts []string
}

type oracleFixup struct {
	in   *Instr
	slot int
	name string
}

func (p *oracleParser) parseBody(fn *Func, start, end int) error {
	env := &p.body
	env.fn = fn
	vals := env.vals.reset(len(fn.Params) + end - start)
	env.fixups = env.fixups[:0]
	for _, prm := range fn.Params {
		vals[prm.Name] = prm
	}
	var cur *Block
	for p.ln = start; p.ln < end; {
		line, ok := p.next()
		if !ok || p.ln > end {
			// Only blank and comment lines were left before the
			// closing brace, and next skipped to it.
			break
		}
		if strings.HasSuffix(line, ":") && !strings.Contains(line, " ") {
			name := strings.TrimSuffix(line, ":")
			cur = fn.AddBlock(name)
			continue
		}
		if cur == nil {
			return fmt.Errorf("instruction before first block label in @%s", fn.Name)
		}
		in, err := p.parseInstr(env, line)
		if err != nil {
			return fmt.Errorf("in @%s: %w", fn.Name, err)
		}
		cur.Append(in)
		if in.HasResult() {
			if _, dup := vals[in.Name]; dup {
				return fmt.Errorf("in @%s: duplicate value %%%s", fn.Name, in.Name)
			}
			vals[in.Name] = in
		}
	}
	p.ln = end + 1
	for _, fx := range env.fixups {
		blk := fn.Block(fx.name)
		if blk == nil {
			return fmt.Errorf("in @%s: unknown block ^%s", fn.Name, fx.name)
		}
		fx.in.Succs()[fx.slot] = blk
	}
	return nil
}

// parseInstr parses one instruction line.
func (p *oracleParser) parseInstr(env *oracleBodyEnv, line string) (*Instr, error) {
	// Split off the !file:line location suffix.
	loc := Loc{}
	if i := strings.LastIndex(line, " !"); i >= 0 {
		locStr := line[i+2:]
		line = strings.TrimSpace(line[:i])
		if j := strings.LastIndex(locStr, ":"); j >= 0 {
			n, err := strconv.Atoi(locStr[j+1:])
			if err != nil {
				return nil, fmt.Errorf("malformed location %q", locStr)
			}
			loc = Loc{File: locStr[:j], Line: n}
		}
	}
	// Split off the result name.
	name := ""
	if strings.HasPrefix(line, "%") {
		eq := strings.Index(line, "=")
		if eq < 0 {
			return nil, fmt.Errorf("malformed instruction %q", line)
		}
		name = strings.TrimSpace(line[1:eq])
		line = strings.TrimSpace(line[eq+1:])
	}
	sp := strings.IndexByte(line, ' ')
	mnemonic := line
	rest := ""
	if sp >= 0 {
		mnemonic = line[:sp]
		rest = strings.TrimSpace(line[sp+1:])
	}
	in := &Instr{Name: name, Ty: Void}
	in.SetLoc(loc)
	switch mnemonic {
	case "alloca":
		ty, err := p.parseType(rest)
		if err != nil {
			return nil, err
		}
		in.Op, in.Ty = OpAlloca, Ptr
		in.SetAllocTy(ty)
	case "load":
		parts := env.splitArgs(rest)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed load %q", rest)
		}
		ty, err := p.parseType(parts[0])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.Ty, in.Args = OpLoad, ty, []Value{ptr}
	case "store", "ntstore":
		parts := env.splitArgs(rest)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed store %q", rest)
		}
		val, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.Args = OpStore, []Value{val, ptr}
		in.SetStoreTy(val.Type())
		if mnemonic == "ntstore" {
			in.Op = OpNTStore
		}
	case "ptradd":
		parts := env.splitArgs(rest)
		if len(parts) != 4 {
			return nil, fmt.Errorf("malformed ptradd %q", rest)
		}
		base, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		idx, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		scale, err := strconv.ParseInt(parts[2], 10, 64)
		if err != nil {
			return nil, err
		}
		disp, err := strconv.ParseInt(parts[3], 10, 64)
		if err != nil {
			return nil, err
		}
		in.Op, in.Ty, in.Args = OpPtrAdd, Ptr, []Value{base, idx}
		in.SetOffsets(scale, disp)
	case "call":
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if !strings.HasPrefix(rest, "@") || open < 0 || close < open {
			return nil, fmt.Errorf("malformed call %q", rest)
		}
		callee := p.mod.Func(rest[1:open])
		if callee == nil {
			return nil, fmt.Errorf("unknown callee %s", rest[:open])
		}
		var args []Value
		if inner := strings.TrimSpace(rest[open+1 : close]); inner != "" {
			parts := env.splitArgs(inner)
			args = make([]Value, 0, len(parts))
			for _, part := range parts {
				a, err := p.parseOperand(env, part)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
		}
		in.Op, in.Ty, in.Args = OpCall, callee.Ret, args
		in.SetCallee(callee)
	case "br":
		parts := env.splitArgs(rest)
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed br %q", rest)
		}
		cond, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		in.Op, in.Args = OpBr, []Value{cond}
		in.SetSuccs(nil, nil)
		for i, bn := range parts[1:] {
			if !strings.HasPrefix(bn, "^") {
				return nil, fmt.Errorf("malformed branch target %q", bn)
			}
			env.fixups = append(env.fixups, oracleFixup{in: in, slot: i, name: bn[1:]})
		}
	case "jmp":
		if !strings.HasPrefix(rest, "^") {
			return nil, fmt.Errorf("malformed jmp %q", rest)
		}
		in.Op = OpJmp
		in.SetSuccs(nil)
		env.fixups = append(env.fixups, oracleFixup{in: in, slot: 0, name: rest[1:]})
	case "ret":
		in.Op = OpRet
		if rest != "void" {
			v, err := p.parseOperand(env, rest)
			if err != nil {
				return nil, err
			}
			in.Args = []Value{v}
		}
	case "flush":
		parts := env.splitArgs(rest)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed flush %q", rest)
		}
		switch parts[0] {
		case "clwb":
			in.FlushK = CLWB
		case "clflushopt":
			in.FlushK = CLFLUSHOPT
		case "clflush":
			in.FlushK = CLFLUSH
		default:
			return nil, fmt.Errorf("unknown flush kind %q", parts[0])
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.Args = OpFlush, []Value{ptr}
	case "fence":
		switch rest {
		case "sfence":
			in.FenceK = SFENCE
		case "mfence":
			in.FenceK = MFENCE
		default:
			return nil, fmt.Errorf("unknown fence kind %q", rest)
		}
		in.Op = OpFence
	case "spawn":
		open := strings.Index(rest, "(")
		close := strings.LastIndex(rest, ")")
		if !strings.HasPrefix(rest, "@") || open < 0 || close < open {
			return nil, fmt.Errorf("malformed spawn %q", rest)
		}
		callee := p.mod.Func(rest[1:open])
		if callee == nil {
			return nil, fmt.Errorf("unknown spawn callee %s", rest[:open])
		}
		var args []Value
		if inner := strings.TrimSpace(rest[open+1 : close]); inner != "" {
			parts := env.splitArgs(inner)
			args = make([]Value, 0, len(parts))
			for _, part := range parts {
				a, err := p.parseOperand(env, part)
				if err != nil {
					return nil, err
				}
				args = append(args, a)
			}
		}
		in.Op, in.Ty, in.Args = OpSpawn, I64, args
		in.SetCallee(callee)
	case "join":
		t, err := p.parseOperand(env, rest)
		if err != nil {
			return nil, err
		}
		in.Op, in.Ty, in.Args = OpJoin, I64, []Value{t}
	case "atomicload":
		parts := env.splitArgs(rest)
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed atomicload %q", rest)
		}
		ordTy := strings.Fields(parts[0])
		if len(ordTy) != 2 {
			return nil, fmt.Errorf("malformed atomicload %q", rest)
		}
		ord, err := oracleParseOrder(ordTy[0])
		if err != nil {
			return nil, err
		}
		ty, err := p.parseType(ordTy[1])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.Order, in.Ty, in.Args = OpAtomicLoad, ord, ty, []Value{ptr}
	case "atomicstore":
		sp2 := strings.IndexByte(rest, ' ')
		if sp2 < 0 {
			return nil, fmt.Errorf("malformed atomicstore %q", rest)
		}
		ord, err := oracleParseOrder(rest[:sp2])
		if err != nil {
			return nil, err
		}
		parts := env.splitArgs(strings.TrimSpace(rest[sp2+1:]))
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed atomicstore %q", rest)
		}
		val, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.Order, in.Args = OpAtomicStore, ord, []Value{val, ptr}
		in.SetStoreTy(val.Type())
	case "atomicrmw":
		fields := strings.Fields(rest)
		if len(fields) < 3 {
			return nil, fmt.Errorf("malformed atomicrmw %q", rest)
		}
		var rmw RMWKind
		switch fields[0] {
		case "add":
			rmw = RMWAdd
		case "xchg":
			rmw = RMWXchg
		default:
			return nil, fmt.Errorf("unknown rmw kind %q", fields[0])
		}
		ord, err := oracleParseOrder(fields[1])
		if err != nil {
			return nil, err
		}
		parts := env.splitArgs(strings.TrimSpace(strings.TrimPrefix(strings.TrimPrefix(rest, fields[0]), " "+fields[1])))
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed atomicrmw operands %q", rest)
		}
		val, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		in.Op, in.RMWK, in.Order, in.Ty, in.Args = OpAtomicRMW, rmw, ord, I64, []Value{val, ptr}
	case "atomiccas":
		sp2 := strings.IndexByte(rest, ' ')
		if sp2 < 0 {
			return nil, fmt.Errorf("malformed atomiccas %q", rest)
		}
		ord, err := oracleParseOrder(rest[:sp2])
		if err != nil {
			return nil, err
		}
		parts := env.splitArgs(strings.TrimSpace(rest[sp2+1:]))
		if len(parts) != 3 {
			return nil, fmt.Errorf("malformed atomiccas %q", rest)
		}
		expect, err := p.parseOperand(env, parts[0])
		if err != nil {
			return nil, err
		}
		nv, err := p.parseOperand(env, parts[1])
		if err != nil {
			return nil, err
		}
		ptr, err := p.parseOperand(env, parts[2])
		if err != nil {
			return nil, err
		}
		in.Op, in.Order, in.Ty, in.Args = OpAtomicCAS, ord, I64, []Value{expect, nv, ptr}
	case "zext", "trunc", "ptrtoint", "inttoptr":
		toIdx := strings.LastIndex(rest, " to ")
		if toIdx < 0 {
			return nil, fmt.Errorf("malformed cast %q", rest)
		}
		v, err := p.parseOperand(env, strings.TrimSpace(rest[:toIdx]))
		if err != nil {
			return nil, err
		}
		to, err := p.parseType(strings.TrimSpace(rest[toIdx+4:]))
		if err != nil {
			return nil, err
		}
		in.Ty, in.Args = to, []Value{v}
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
		op := oracleOpByName(mnemonic)
		if op == OpInvalid {
			return nil, fmt.Errorf("unknown mnemonic %q", mnemonic)
		}
		// Binary op or comparison: "<op> <ty> %a, %b".
		sp := strings.IndexByte(rest, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("malformed %s %q", mnemonic, rest)
		}
		ty, err := p.parseType(rest[:sp])
		if err != nil {
			return nil, err
		}
		parts := env.splitArgs(rest[sp+1:])
		if len(parts) != 2 {
			return nil, fmt.Errorf("malformed %s operands %q", mnemonic, rest)
		}
		a, err := p.parseBare(env, parts[0], ty)
		if err != nil {
			return nil, err
		}
		b, err := p.parseBare(env, parts[1], ty)
		if err != nil {
			return nil, err
		}
		in.Op, in.Args = op, []Value{a, b}
		if op.IsCmp() {
			in.Ty = I1
		} else {
			in.Ty = ty
		}
	}
	return in, nil
}

func oracleParseOrder(s string) (MemOrder, error) {
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

func oracleOpByName(s string) Op {
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
func (env *oracleBodyEnv) splitArgs(s string) []string {
	out := env.parts[:0]
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
				out = append(out, strings.TrimSpace(s[last:i]))
				last = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[last:]))
	env.parts = out
	return out
}

// parseOperand parses a typed operand: "<ty> <val>" or the literal "null".
func (p *oracleParser) parseOperand(env *oracleBodyEnv, s string) (Value, error) {
	s = strings.TrimSpace(s)
	if s == "null" || s == "ptr null" {
		return Null(), nil
	}
	sp := strings.IndexByte(s, ' ')
	if sp < 0 {
		return nil, fmt.Errorf("malformed operand %q", s)
	}
	ty, err := p.parseType(s[:sp])
	if err != nil {
		return nil, err
	}
	return p.parseBare(env, strings.TrimSpace(s[sp+1:]), ty)
}

// parseBare parses an operand whose type is already known.
func (p *oracleParser) parseBare(env *oracleBodyEnv, s string, ty Type) (Value, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "null":
		return Null(), nil
	case strings.HasPrefix(s, "%"):
		v, ok := env.vals.m[s[1:]]
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
		return &Const{Ty: ty, Val: n}, nil
	}
}
