package lang

import (
	"encoding/binary"
	"fmt"

	"hippocrates/internal/ir"
	"hippocrates/internal/obs"
)

// Compile parses, type-checks and lowers a pmc source file into an IR
// module. Lowering is clang -O0 shaped: every local (including parameters)
// gets an entry-block alloca, all control flow is explicit blocks, and
// every instruction carries its source line.
func Compile(filename, src string) (*ir.Module, error) {
	return CompileObs(filename, src, nil)
}

// CompileObs is Compile with telemetry: the lex, parse, and lower phases
// each get a child span of sp (nil disables recording).
func CompileObs(filename, src string, sp *obs.Span) (*ir.Module, error) {
	lsp := sp.Start("lex")
	toks, err := newLexer(filename, src).lex()
	lsp.Add("lang.tokens", int64(len(toks)))
	lsp.End()
	if err != nil {
		return nil, err
	}
	psp := sp.Start("parse")
	p := &parser{file: filename, toks: toks, structNames: map[string]bool{}}
	f, err := p.parseFile()
	psp.End()
	if err != nil {
		return nil, err
	}
	wsp := sp.Start("lower")
	defer wsp.End()
	m, err := Lower(f)
	if m != nil {
		wsp.Add("lang.funcs", int64(len(m.Funcs)))
		wsp.Add("ir.instrs", int64(m.NumInstrs()))
	}
	return m, err
}

// MustCompile is Compile for known-good sources. Only tests call it, in
// a dozen packages, so it lives here once rather than in each of them.
// (The corpus compiles through corpus.Program.MustCompile.)
func MustCompile(filename, src string) *ir.Module {
	m, err := Compile(filename, src)
	if err != nil {
		panic(err)
	}
	return m
}

// stdSigs describes the pre-declared externals (see package comment).
var stdSigs = []struct {
	name   string
	ret    *Type
	params []*Type
}{
	{"pm_alloc", ptrTo(tyByte), []*Type{tyInt}},
	{"pm_root", ptrTo(tyByte), []*Type{tyInt}},
	{"malloc", ptrTo(tyByte), []*Type{tyInt}},
	{"free", tyVoid, []*Type{ptrTo(tyByte)}},
	{"memcpy", ptrTo(tyByte), []*Type{ptrTo(tyByte), ptrTo(tyByte), tyInt}},
	{"memset", ptrTo(tyByte), []*Type{ptrTo(tyByte), tyInt, tyInt}},
	{"flush_range", tyVoid, []*Type{ptrTo(tyByte), tyInt}},
	{"pm_checkpoint", tyVoid, nil},
	{"pm_assert", tyVoid, []*Type{tyInt, ptrTo(tyByte)}},
	{"print_int", tyVoid, []*Type{tyInt}},
	{"print_str", tyVoid, []*Type{ptrTo(tyByte)}},
	{"abort_msg", tyVoid, []*Type{ptrTo(tyByte)}},
}

type funcInfo struct {
	fn     *ir.Func
	params []*Type
	ret    *Type
	// extern marks the pre-declared externals (stdSigs) — they have no
	// body and cannot be spawned as threads.
	extern bool
}

type globalInfo struct {
	g  *ir.Global
	ty *Type
}

type compiler struct {
	file       string
	mod        *ir.Module
	structs    map[string]*Type
	fieldTypes map[string][]*Type
	consts     map[string]int64
	globals    map[string]*globalInfo
	funcs      map[string]*funcInfo
	strCount   int
}

// Lower translates a parsed file to IR.
func Lower(f *File) (*ir.Module, error) {
	c := &compiler{
		file:       f.Name,
		mod:        ir.NewModule(f.Name),
		structs:    make(map[string]*Type),
		fieldTypes: make(map[string][]*Type),
		consts:     make(map[string]int64),
		globals:    make(map[string]*globalInfo),
		funcs:      make(map[string]*funcInfo),
	}
	for _, sd := range f.Structs {
		if err := c.declareStruct(sd); err != nil {
			return nil, err
		}
	}
	for _, cd := range f.Consts {
		if _, dup := c.consts[cd.Name]; dup {
			return nil, c.errf(cd.Line, "duplicate constant %q", cd.Name)
		}
		v, err := c.evalConst(cd.X)
		if err != nil {
			return nil, err
		}
		c.consts[cd.Name] = v
	}
	for _, sig := range stdSigs {
		params := make([]*ir.Param, len(sig.params))
		for i, pt := range sig.params {
			params[i] = &ir.Param{Name: fmt.Sprintf("a%d", i), Ty: pt.IR()}
		}
		c.funcs[sig.name] = &funcInfo{
			fn:     c.mod.AddFunc(ir.NewFunc(sig.name, sig.ret.IR(), params...)),
			params: sig.params,
			ret:    sig.ret,
			extern: true,
		}
	}
	for _, gd := range f.Globals {
		if err := c.declareGlobal(gd); err != nil {
			return nil, err
		}
	}
	for _, fd := range f.Funcs {
		if err := c.declareFunc(fd); err != nil {
			return nil, err
		}
	}
	for _, fd := range f.Funcs {
		if err := c.lowerFunc(fd); err != nil {
			return nil, err
		}
	}
	if err := ir.Verify(c.mod); err != nil {
		return nil, fmt.Errorf("lang: internal error, lowered module does not verify: %w", err)
	}
	return c.mod, nil
}

func (c *compiler) errf(line int, format string, args ...any) error {
	return errf(c.file, line, format, args...)
}

// resolveType turns a syntactic TypeRef into a semantic type.
func (c *compiler) resolveType(tr TypeRef) (*Type, error) {
	var base *Type
	switch tr.Name {
	case "int":
		base = tyInt
	case "byte":
		base = tyByte
	case "bool":
		base = tyBool
	case "void":
		base = tyVoid
	default:
		st, ok := c.structs[tr.Name]
		if !ok {
			return nil, c.errf(tr.Line, "unknown type %q", tr.Name)
		}
		base = st
	}
	for i := 0; i < tr.Stars; i++ {
		base = ptrTo(base)
	}
	if tr.ArrayLen >= 0 {
		if base == tyVoid {
			return nil, c.errf(tr.Line, "array of void")
		}
		if tr.ArrayLen == 0 {
			return nil, c.errf(tr.Line, "zero-length array")
		}
		base = arrayOf(base, tr.ArrayLen)
	}
	return base, nil
}

func (c *compiler) declareStruct(sd *StructDecl) error {
	// The parser guarantees name uniqueness; fields may reference this
	// struct through pointers (the Type is registered before fields are
	// resolved, but the ir.StructType needs final field layouts, so
	// by-value self-reference is rejected via the size computation).
	t := &Type{Kind: TStruct}
	c.structs[sd.Name] = t
	var irFields []ir.Field
	var langFields []*Type
	seen := map[string]bool{}
	for _, fd := range sd.Fields {
		if seen[fd.Name] {
			return c.errf(fd.Line, "duplicate field %q in struct %s", fd.Name, sd.Name)
		}
		seen[fd.Name] = true
		ft, err := c.resolveType(fd.Type)
		if err != nil {
			return err
		}
		if ft.Kind == TVoid {
			return c.errf(fd.Line, "field %q has void type", fd.Name)
		}
		if ft.Kind == TStruct && ft == t {
			return c.errf(fd.Line, "struct %s contains itself by value", sd.Name)
		}
		irFields = append(irFields, ir.Field{Name: fd.Name, Type: ft.IR()})
		langFields = append(langFields, ft)
	}
	t.Struct = c.mod.AddStruct(ir.NewStruct(sd.Name, irFields))
	c.fieldTypes[sd.Name] = langFields
	return nil
}

func (c *compiler) declareGlobal(gd *GlobalDecl) error {
	if _, dup := c.globals[gd.Name]; dup {
		return c.errf(gd.Line, "duplicate global %q", gd.Name)
	}
	ty, err := c.resolveType(gd.Type)
	if err != nil {
		return err
	}
	if ty.Kind == TVoid {
		return c.errf(gd.Line, "global %q has void type", gd.Name)
	}
	g := &ir.Global{Name: gd.Name, Elem: ty.IR(), PM: gd.PM}
	if gd.Init != nil {
		init, err := c.encodeInit(gd, ty)
		if err != nil {
			return err
		}
		g.Init = init
	}
	c.mod.AddGlobal(g)
	c.globals[gd.Name] = &globalInfo{g: g, ty: ty}
	return nil
}

// encodeInit encodes a global initializer into the byte image.
func (c *compiler) encodeInit(gd *GlobalDecl, ty *Type) ([]byte, error) {
	if s, ok := gd.Init.(*StrLit); ok {
		if ty.Kind != TArray || ty.Elem.Kind != TByte {
			return nil, c.errf(gd.Line, "string initializer requires a byte array global")
		}
		if int64(len(s.Val))+1 > ty.Len {
			return nil, c.errf(gd.Line, "string initializer longer than array")
		}
		return append([]byte(s.Val), 0), nil
	}
	v, err := c.evalConst(gd.Init)
	if err != nil {
		return nil, err
	}
	if !ty.IsInteger() && ty.Kind != TBool {
		return nil, c.errf(gd.Line, "constant initializer requires an integer global")
	}
	buf := make([]byte, ty.Size())
	switch ty.Size() {
	case 1:
		buf[0] = byte(v)
	default:
		binary.LittleEndian.PutUint64(buf, uint64(v))
	}
	return buf, nil
}

// evalConst evaluates a compile-time constant expression.
func (c *compiler) evalConst(e Expr) (int64, error) {
	switch x := e.(type) {
	case *IntLit:
		return x.Val, nil
	case *BoolLit:
		if x.Val {
			return 1, nil
		}
		return 0, nil
	case *UnaryExpr:
		v, err := c.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "-":
			return -v, nil
		case "~":
			return ^v, nil
		}
		return 0, c.errf(x.Line, "operator %q not constant", x.Op)
	case *SizeOfExpr:
		ty, err := c.resolveType(x.Of)
		if err != nil {
			return 0, err
		}
		return ty.Size(), nil
	case *Ident:
		if v, ok := c.consts[x.Name]; ok {
			return v, nil
		}
		return 0, c.errf(x.Line, "%q is not a constant", x.Name)
	case *BinaryExpr:
		a, err := c.evalConst(x.X)
		if err != nil {
			return 0, err
		}
		b, err := c.evalConst(x.Y)
		if err != nil {
			return 0, err
		}
		switch x.Op {
		case "+":
			return a + b, nil
		case "-":
			return a - b, nil
		case "*":
			return a * b, nil
		case "/":
			if b == 0 {
				return 0, c.errf(x.Line, "constant division by zero")
			}
			return a / b, nil
		case "%":
			if b == 0 {
				return 0, c.errf(x.Line, "constant division by zero")
			}
			return a % b, nil
		case "&":
			return a & b, nil
		case "|":
			return a | b, nil
		case "^":
			return a ^ b, nil
		case "<<":
			return a << (uint64(b) & 63), nil
		case ">>":
			return a >> (uint64(b) & 63), nil
		}
		return 0, c.errf(x.Line, "operator %q not constant", x.Op)
	}
	return 0, c.errf(e.exprLine(), "initializer is not a constant expression")
}

func (c *compiler) declareFunc(fd *FuncDecl) error {
	if _, dup := c.funcs[fd.Name]; dup {
		return c.errf(fd.Line, "duplicate function %q (externals are pre-declared)", fd.Name)
	}
	switch fd.Name {
	case "clwb", "clflush", "clflushopt", "sfence", "mfence", "ntstore":
		return c.errf(fd.Line, "%q is a persistence intrinsic and cannot be defined", fd.Name)
	case "spawn", "join", "atomic_load", "atomic_load_acquire", "atomic_store",
		"atomic_store_release", "atomic_add", "atomic_xchg", "atomic_cas":
		return c.errf(fd.Line, "%q is a concurrency intrinsic and cannot be defined", fd.Name)
	}
	ret, err := c.resolveType(fd.Ret)
	if err != nil {
		return err
	}
	if !ret.IsScalar() && ret.Kind != TVoid {
		return c.errf(fd.Line, "function %q returns non-scalar type %s", fd.Name, ret)
	}
	var irParams []*ir.Param
	var ptys []*Type
	seen := map[string]bool{}
	for _, pd := range fd.Params {
		if seen[pd.Name] {
			return c.errf(pd.Line, "duplicate parameter %q", pd.Name)
		}
		seen[pd.Name] = true
		pt, err := c.resolveType(pd.Type)
		if err != nil {
			return err
		}
		if !pt.IsScalar() {
			return c.errf(pd.Line, "parameter %q has non-scalar type %s (pass a pointer)", pd.Name, pt)
		}
		irParams = append(irParams, &ir.Param{Name: pd.Name, Ty: pt.IR()})
		ptys = append(ptys, pt)
	}
	fn := c.mod.AddFunc(ir.NewFunc(fd.Name, ret.IR(), irParams...))
	c.funcs[fd.Name] = &funcInfo{fn: fn, params: ptys, ret: ret}
	return nil
}

// internString creates (or reuses) a NUL-terminated global for a string
// literal and returns it.
func (c *compiler) internString(s string) *ir.Global {
	for _, g := range c.mod.Globals {
		if len(g.Init) == len(s)+1 && string(g.Init[:len(s)]) == s && !g.PM {
			if _, isStr := c.globals[g.Name]; !isStr && g.Init[len(s)] == 0 {
				return g
			}
		}
	}
	g := &ir.Global{
		Name: fmt.Sprintf("str%d", c.strCount),
		Elem: ir.Array(ir.I8, int64(len(s)+1)),
		Init: append([]byte(s), 0),
	}
	c.strCount++
	return c.mod.AddGlobal(g)
}
