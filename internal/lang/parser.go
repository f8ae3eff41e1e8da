package lang

// Parse parses a pmc source file.
func Parse(filename, src string) (*File, error) {
	toks, err := newLexer(filename, src).lex()
	if err != nil {
		return nil, err
	}
	p := &parser{file: filename, toks: toks, structNames: map[string]bool{}}
	return p.parseFile()
}

type parser struct {
	file        string
	toks        []token
	i           int
	structNames map[string]bool
}

func (p *parser) cur() token  { return p.toks[p.i] }
func (p *parser) peek() token { return p.toks[min(p.i+1, len(p.toks)-1)] }
func (p *parser) next() token {
	t := p.toks[p.i]
	if p.i < len(p.toks)-1 {
		p.i++
	}
	return t
}

func (p *parser) errf(format string, args ...any) error {
	return errf(p.file, p.cur().line, format, args...)
}

func (p *parser) isPunct(s string) bool {
	return p.cur().kind == tokPunct && p.cur().text == s
}

func (p *parser) isKw(s string) bool {
	return p.cur().kind == tokIdent && p.cur().text == s
}

func (p *parser) accept(s string) bool {
	if p.isPunct(s) || p.isKw(s) {
		p.next()
		return true
	}
	return false
}

func (p *parser) expect(s string) error {
	if p.accept(s) {
		return nil
	}
	return p.errf("expected %q, found %s", s, p.cur())
}

func (p *parser) isTypeName(t token) bool {
	if t.kind != tokIdent {
		return false
	}
	switch t.text {
	case "int", "byte", "bool", "void":
		return true
	}
	return p.structNames[t.text]
}

func (p *parser) parseFile() (*File, error) {
	f := &File{Name: p.file}
	for p.cur().kind != tokEOF {
		switch {
		case p.isKw("struct") && p.peek().kind == tokIdent && p.toks[min(p.i+2, len(p.toks)-1)].text == "{":
			st, err := p.parseStruct()
			if err != nil {
				return nil, err
			}
			f.Structs = append(f.Structs, st)
		case p.isKw("const"):
			line := p.cur().line
			p.next()
			if p.cur().kind != tokIdent || keywords[p.cur().text] {
				return nil, p.errf("expected constant name, found %s", p.cur())
			}
			name := p.next().text
			if err := p.expect("="); err != nil {
				return nil, err
			}
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect(";"); err != nil {
				return nil, err
			}
			f.Consts = append(f.Consts, &ConstDecl{Name: name, X: x, Line: line})
		default:
			pm := false
			if p.isKw("pm") {
				p.next()
				pm = true
			}
			ty, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected declaration name, found %s", p.cur())
			}
			nameTok := p.next()
			if keywords[nameTok.text] {
				return nil, errf(p.file, nameTok.line, "keyword %q used as a name", nameTok.text)
			}
			if p.isPunct("(") {
				if pm {
					return nil, errf(p.file, nameTok.line, "functions cannot be 'pm'")
				}
				fn, err := p.parseFunc(ty, nameTok)
				if err != nil {
					return nil, err
				}
				f.Funcs = append(f.Funcs, fn)
			} else {
				g, err := p.parseGlobalRest(ty, nameTok, pm)
				if err != nil {
					return nil, err
				}
				f.Globals = append(f.Globals, g)
			}
		}
	}
	return f, nil
}

func (p *parser) parseStruct() (*StructDecl, error) {
	line := p.cur().line
	p.next() // struct
	name := p.next().text
	if p.structNames[name] {
		return nil, errf(p.file, line, "duplicate struct %q", name)
	}
	p.structNames[name] = true
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &StructDecl{Name: name, Line: line}
	for !p.accept("}") {
		fty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected field name, found %s", p.cur())
		}
		fname := p.next()
		if p.accept("[") {
			if p.cur().kind != tokInt {
				return nil, p.errf("expected array length")
			}
			fty.ArrayLen = p.next().val
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if err := p.expect(";"); err != nil {
			return nil, err
		}
		st.Fields = append(st.Fields, StructField{Name: fname.text, Type: fty, Line: fname.line})
	}
	p.accept(";")
	return st, nil
}

// parseType parses a base type name with pointer stars. Array suffixes are
// parsed by the declarator sites.
func (p *parser) parseType() (TypeRef, error) {
	t := p.cur()
	if !p.isTypeName(t) {
		return TypeRef{}, p.errf("expected type, found %s", t)
	}
	p.next()
	tr := TypeRef{Name: t.text, ArrayLen: -1, Line: t.line}
	for p.accept("*") {
		tr.Stars++
	}
	return tr, nil
}

func (p *parser) parseGlobalRest(ty TypeRef, name token, pm bool) (*GlobalDecl, error) {
	g := &GlobalDecl{Name: name.text, Type: ty, PM: pm, Line: name.line}
	if p.accept("[") {
		if p.cur().kind != tokInt {
			return nil, p.errf("expected array length")
		}
		g.Type.ArrayLen = p.next().val
		if err := p.expect("]"); err != nil {
			return nil, err
		}
	}
	if p.accept("=") {
		init, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		g.Init = init
	}
	return g, p.expect(";")
}

func (p *parser) parseFunc(ret TypeRef, name token) (*FuncDecl, error) {
	fn := &FuncDecl{Name: name.text, Ret: ret, Line: name.line}
	p.next() // (
	for !p.accept(")") {
		if len(fn.Params) > 0 {
			if err := p.expect(","); err != nil {
				return nil, err
			}
		}
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected parameter name, found %s", p.cur())
		}
		pname := p.next()
		fn.Params = append(fn.Params, ParamDecl{Name: pname.text, Type: ty, Line: pname.line})
	}
	body, err := p.parseBlock()
	if err != nil {
		return nil, err
	}
	fn.Body = body
	return fn, nil
}

func (p *parser) parseBlock() (*BlockStmt, error) {
	line := p.cur().line
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	blk := &BlockStmt{Line: line}
	for !p.accept("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated block")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		blk.Stmts = append(blk.Stmts, s)
	}
	return blk, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	line := p.cur().line
	switch {
	case p.isPunct("{"):
		return p.parseBlock()
	case p.isKw("if"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		then, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		st := &IfStmt{Cond: cond, Then: then, Line: line}
		if p.accept("else") {
			els, err := p.parseStmt()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		return st, nil
	case p.isKw("while"):
		p.next()
		if err := p.expect("("); err != nil {
			return nil, err
		}
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expect(")"); err != nil {
			return nil, err
		}
		body, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		return &WhileStmt{Cond: cond, Body: body, Line: line}, nil
	case p.isKw("for"):
		return p.parseFor()
	case p.isKw("switch"):
		return p.parseSwitch()
	case p.isKw("return"):
		p.next()
		st := &ReturnStmt{Line: line}
		if !p.isPunct(";") {
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.X = x
		}
		return st, p.expect(";")
	case p.isKw("break"):
		p.next()
		return &BreakStmt{Line: line}, p.expect(";")
	case p.isKw("continue"):
		p.next()
		return &ContinueStmt{Line: line}, p.expect(";")
	default:
		st, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		return st, p.expect(";")
	}
}

func (p *parser) parseFor() (Stmt, error) {
	line := p.cur().line
	p.next() // for
	if err := p.expect("("); err != nil {
		return nil, err
	}
	st := &ForStmt{Line: line}
	if !p.isPunct(";") {
		init, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Init = init
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(";") {
		cond, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Cond = cond
	}
	if err := p.expect(";"); err != nil {
		return nil, err
	}
	if !p.isPunct(")") {
		post, err := p.parseSimpleStmt()
		if err != nil {
			return nil, err
		}
		st.Post = post
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	body, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	st.Body = body
	return st, nil
}

func (p *parser) parseSwitch() (Stmt, error) {
	line := p.cur().line
	p.next() // switch
	if err := p.expect("("); err != nil {
		return nil, err
	}
	x, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	if err := p.expect(")"); err != nil {
		return nil, err
	}
	if err := p.expect("{"); err != nil {
		return nil, err
	}
	st := &SwitchStmt{X: x, Line: line}
	seenDefault := false
	for !p.accept("}") {
		switch {
		case p.isKw("case"):
			cline := p.cur().line
			p.next()
			var vals []Expr
			for {
				v, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				vals = append(vals, v)
				if !p.accept(",") {
					break
				}
			}
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Cases = append(st.Cases, SwitchCase{Vals: vals, Body: body, Line: cline})
		case p.isKw("default"):
			if seenDefault {
				return nil, p.errf("duplicate default case")
			}
			seenDefault = true
			p.next()
			if err := p.expect(":"); err != nil {
				return nil, err
			}
			body, err := p.parseCaseBody()
			if err != nil {
				return nil, err
			}
			st.Default = body
		default:
			return nil, p.errf("expected 'case' or 'default', found %s", p.cur())
		}
	}
	return st, nil
}

// parseCaseBody collects statements until the next case/default label or
// the closing brace.
func (p *parser) parseCaseBody() ([]Stmt, error) {
	var body []Stmt
	for !p.isKw("case") && !p.isKw("default") && !p.isPunct("}") {
		if p.cur().kind == tokEOF {
			return nil, p.errf("unterminated switch")
		}
		s, err := p.parseStmt()
		if err != nil {
			return nil, err
		}
		body = append(body, s)
	}
	return body, nil
}

// parseSimpleStmt parses a declaration, assignment, increment, or
// expression statement without consuming the terminator.
func (p *parser) parseSimpleStmt() (Stmt, error) {
	line := p.cur().line
	// A type name followed by an identifier (or stars) begins a local
	// declaration; a bare struct-typed expression cannot start a
	// statement in pmc.
	if p.isTypeName(p.cur()) && !keywordExpr(p.cur().text) &&
		(p.peek().kind == tokIdent && !keywords[p.peek().text] || p.peek().text == "*") {
		ty, err := p.parseType()
		if err != nil {
			return nil, err
		}
		if p.cur().kind != tokIdent {
			return nil, p.errf("expected variable name, found %s", p.cur())
		}
		name := p.next()
		d := &DeclStmt{Name: name.text, Type: ty, Line: line}
		if p.accept("[") {
			if p.cur().kind != tokInt {
				return nil, p.errf("expected array length")
			}
			d.Type.ArrayLen = p.next().val
			if err := p.expect("]"); err != nil {
				return nil, err
			}
		}
		if p.accept("=") {
			init, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			d.Init = init
		}
		return d, nil
	}
	lhs, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	switch {
	case p.isPunct("="):
		p.next()
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, Line: line}, nil
	case p.isCompoundAssign():
		op := p.next().text
		rhs, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		return &AssignStmt{LHS: lhs, RHS: rhs, Op: op[:len(op)-1], Line: line}, nil
	case p.isPunct("++"), p.isPunct("--"):
		op := "+"
		if p.next().text == "--" {
			op = "-"
		}
		return &AssignStmt{LHS: lhs, RHS: &IntLit{Val: 1, Line: line}, Op: op, Line: line}, nil
	default:
		return &ExprStmt{X: lhs, Line: line}, nil
	}
}

func keywordExpr(s string) bool {
	return s == "true" || s == "false" || s == "null" || s == "sizeof"
}

func (p *parser) isCompoundAssign() bool {
	if p.cur().kind != tokPunct {
		return false
	}
	switch p.cur().text {
	case "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>=":
		return true
	}
	return false
}

// Binary operator precedence, C-style (higher binds tighter).
var binPrec = map[string]int{
	"||": 1, "&&": 2,
	"|": 3, "^": 4, "&": 5,
	"==": 6, "!=": 6,
	"<": 7, "<=": 7, ">": 7, ">=": 7,
	"<<": 8, ">>": 8,
	"+": 9, "-": 9,
	"*": 10, "/": 10, "%": 10,
}

func (p *parser) parseExpr() (Expr, error) { return p.parseBinary(0) }

func (p *parser) parseBinary(minPrec int) (Expr, error) {
	lhs, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		if t.kind != tokPunct {
			return lhs, nil
		}
		prec, ok := binPrec[t.text]
		if !ok || prec <= minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseBinary(prec)
		if err != nil {
			return nil, err
		}
		lhs = &BinaryExpr{Op: t.text, X: lhs, Y: rhs, Line: t.line}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	t := p.cur()
	if t.kind == tokPunct {
		switch t.text {
		case "-", "!", "~", "*", "&":
			p.next()
			x, err := p.parseUnary()
			if err != nil {
				return nil, err
			}
			return &UnaryExpr{Op: t.text, X: x, Line: t.line}, nil
		case "(":
			// Cast: '(' typename stars ')' unary.
			if p.isCast() {
				p.next()
				to, err := p.parseType()
				if err != nil {
					return nil, err
				}
				if err := p.expect(")"); err != nil {
					return nil, err
				}
				x, err := p.parseUnary()
				if err != nil {
					return nil, err
				}
				return &CastExpr{To: to, X: x, Line: t.line}, nil
			}
		}
	}
	return p.parsePostfix()
}

// isCast looks ahead for "( typename [stars] )".
func (p *parser) isCast() bool {
	if !p.isPunct("(") {
		return false
	}
	j := p.i + 1
	if j >= len(p.toks) || !p.isTypeName(p.toks[j]) {
		return false
	}
	j++
	for j < len(p.toks) && p.toks[j].kind == tokPunct && p.toks[j].text == "*" {
		j++
	}
	return j < len(p.toks) && p.toks[j].kind == tokPunct && p.toks[j].text == ")"
}

func (p *parser) parsePostfix() (Expr, error) {
	x, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.cur()
		switch {
		case p.isPunct("["):
			p.next()
			idx, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expect("]"); err != nil {
				return nil, err
			}
			x = &IndexExpr{X: x, I: idx, Line: t.line}
		case p.isPunct("."):
			p.next()
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected field name, found %s", p.cur())
			}
			x = &MemberExpr{X: x, Name: p.next().text, Line: t.line}
		case p.isPunct("->"):
			p.next()
			if p.cur().kind != tokIdent {
				return nil, p.errf("expected field name, found %s", p.cur())
			}
			x = &MemberExpr{X: x, Name: p.next().text, Arrow: true, Line: t.line}
		default:
			return x, nil
		}
	}
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokInt:
		p.next()
		return &IntLit{Val: t.val, Line: t.line}, nil
	case tokChar:
		p.next()
		return &IntLit{Val: t.val, Line: t.line}, nil
	case tokString:
		p.next()
		return &StrLit{Val: t.text, Line: t.line}, nil
	case tokIdent:
		switch t.text {
		case "true", "false":
			p.next()
			return &BoolLit{Val: t.text == "true", Line: t.line}, nil
		case "null":
			p.next()
			return &NullLit{Line: t.line}, nil
		case "sizeof":
			p.next()
			if err := p.expect("("); err != nil {
				return nil, err
			}
			of, err := p.parseType()
			if err != nil {
				return nil, err
			}
			if err := p.expect(")"); err != nil {
				return nil, err
			}
			return &SizeOfExpr{Of: of, Line: t.line}, nil
		}
		if keywords[t.text] {
			return nil, p.errf("unexpected keyword %q in expression", t.text)
		}
		p.next()
		if p.isPunct("(") {
			p.next()
			call := &CallExpr{Name: t.text, Line: t.line}
			for !p.accept(")") {
				if len(call.Args) > 0 {
					if err := p.expect(","); err != nil {
						return nil, err
					}
				}
				a, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				call.Args = append(call.Args, a)
			}
			return call, nil
		}
		return &Ident{Name: t.text, Line: t.line}, nil
	case tokPunct:
		if t.text == "(" {
			p.next()
			x, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			return x, p.expect(")")
		}
	}
	return nil, p.errf("unexpected %s in expression", t)
}
