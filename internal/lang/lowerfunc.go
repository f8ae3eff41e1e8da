package lang

import (
	"fmt"

	"hippocrates/internal/ir"
)

// lowerer compiles one function body.
type lowerer struct {
	c      *compiler
	b      *ir.Builder
	fi     *funcInfo
	scopes []map[string]*local
	breaks []*ir.Block
	conts  []*ir.Block
}

type local struct {
	addr ir.Value // the alloca
	ty   *Type
}

func (c *compiler) lowerFunc(fd *FuncDecl) error {
	fi := c.funcs[fd.Name]
	lo := &lowerer{c: c, fi: fi, b: ir.NewBuilder(fi.fn)}
	lo.pushScope()
	lo.b.SetLoc(ir.Loc{File: c.file, Line: fd.Line})
	// Parameters are mutable in pmc (as in C): each gets a slot.
	for i, p := range fi.fn.Params {
		slot := lo.b.Alloca(p.Ty)
		lo.b.Store(p.Ty, p, slot)
		lo.scopes[0][p.Name] = &local{addr: slot, ty: fi.params[i]}
	}
	if err := lo.stmt(fd.Body); err != nil {
		return err
	}
	lo.finalize()
	fi.fn.Renumber()
	return nil
}

// finalize terminates any unterminated or empty blocks with a default
// return (the zero value for non-void functions — unreachable in
// well-formed programs, but it keeps the verifier strict elsewhere).
func (lo *lowerer) finalize() {
	for _, blk := range lo.fi.fn.Blocks {
		if blk.Terminator() != nil {
			continue
		}
		lo.b.SetBlock(blk)
		if lo.fi.ret.Kind == TVoid {
			lo.b.Ret(nil)
		} else {
			lo.b.Ret(&ir.Const{Ty: lo.fi.ret.IR(), Val: 0})
		}
	}
}

func (lo *lowerer) pushScope() { lo.scopes = append(lo.scopes, map[string]*local{}) }
func (lo *lowerer) popScope()  { lo.scopes = lo.scopes[:len(lo.scopes)-1] }

func (lo *lowerer) lookup(name string) *local {
	for i := len(lo.scopes) - 1; i >= 0; i-- {
		if l, ok := lo.scopes[i][name]; ok {
			return l
		}
	}
	return nil
}

func (lo *lowerer) errf(line int, format string, args ...any) error {
	return errf(lo.c.file, line, format, args...)
}

// emitAlloca places an alloca at the head of the entry block so a
// declaration inside a loop does not grow the frame per iteration.
func (lo *lowerer) emitAlloca(layout ir.Type, line int) *ir.Instr {
	in := &ir.Instr{Op: ir.OpAlloca, Ty: ir.Ptr}
	in.SetAllocTy(layout)
	in.SetLoc(ir.Loc{File: lo.c.file, Line: line})
	in.Name = fmt.Sprintf("slot%d", lo.fi.fn.NumInstrs())
	entry := lo.fi.fn.Entry()
	if len(entry.Instrs) == 0 {
		entry.Append(in)
	} else {
		entry.InsertBefore(entry.Instrs[0], in)
	}
	return in
}

// ---- statements ----

func (lo *lowerer) stmt(s Stmt) error {
	lo.b.SetLoc(ir.Loc{File: lo.c.file, Line: s.stmtLine()})
	if lo.b.Terminated() {
		// Code after break/continue/return: compile it into an
		// unreachable block so the block structure stays well-formed.
		lo.b.SetBlock(lo.b.NewBlock("dead"))
	}
	switch x := s.(type) {
	case *BlockStmt:
		lo.pushScope()
		for _, inner := range x.Stmts {
			if err := lo.stmt(inner); err != nil {
				return err
			}
		}
		lo.popScope()
		return nil
	case *DeclStmt:
		return lo.declStmt(x)
	case *AssignStmt:
		return lo.assignStmt(x)
	case *ExprStmt:
		_, _, err := lo.valueOrVoid(x.X)
		return err
	case *IfStmt:
		return lo.ifStmt(x)
	case *WhileStmt:
		return lo.whileStmt(x)
	case *ForStmt:
		return lo.forStmt(x)
	case *SwitchStmt:
		return lo.switchStmt(x)
	case *ReturnStmt:
		return lo.returnStmt(x)
	case *BreakStmt:
		if len(lo.breaks) == 0 {
			return lo.errf(x.Line, "break outside a loop")
		}
		lo.b.Jmp(lo.breaks[len(lo.breaks)-1])
		return nil
	case *ContinueStmt:
		if len(lo.conts) == 0 {
			return lo.errf(x.Line, "continue outside a loop")
		}
		lo.b.Jmp(lo.conts[len(lo.conts)-1])
		return nil
	}
	return lo.errf(s.stmtLine(), "unhandled statement %T", s)
}

func (lo *lowerer) declStmt(x *DeclStmt) error {
	if lo.scopes[len(lo.scopes)-1][x.Name] != nil {
		return lo.errf(x.Line, "duplicate variable %q in this scope", x.Name)
	}
	ty, err := lo.c.resolveType(x.Type)
	if err != nil {
		return err
	}
	if ty.Kind == TVoid {
		return lo.errf(x.Line, "variable %q has void type", x.Name)
	}
	slot := lo.emitAlloca(ty.IR(), x.Line)
	lo.scopes[len(lo.scopes)-1][x.Name] = &local{addr: slot, ty: ty}
	if x.Init != nil {
		if !ty.IsScalar() {
			return lo.errf(x.Line, "cannot initialize aggregate %q inline (use memset/memcpy)", x.Name)
		}
		v, vt, err := lo.value(x.Init)
		if err != nil {
			return err
		}
		cv, err := lo.convert(v, vt, ty, x.Line)
		if err != nil {
			return err
		}
		lo.b.Store(ty.IR(), cv, slot)
	}
	return nil
}

func (lo *lowerer) assignStmt(x *AssignStmt) error {
	addr, lty, err := lo.lvalue(x.LHS)
	if err != nil {
		return err
	}
	if !lty.IsScalar() {
		return lo.errf(x.Line, "cannot assign aggregate %s (use memcpy)", lty)
	}
	rhs, rty, err := lo.value(x.RHS)
	if err != nil {
		return err
	}
	if x.Op != "" {
		cur := lo.b.Load(lty.IR(), addr)
		nv, nty, err := lo.binaryValues(x.Op, cur, lty, rhs, rty, x.Line)
		if err != nil {
			return err
		}
		rhs, rty = nv, nty
	}
	cv, err := lo.convert(rhs, rty, lty, x.Line)
	if err != nil {
		return err
	}
	lo.b.Store(lty.IR(), cv, addr)
	return nil
}

func (lo *lowerer) ifStmt(x *IfStmt) error {
	cond, err := lo.truthy(x.Cond)
	if err != nil {
		return err
	}
	then := lo.b.NewBlock("then")
	exit := lo.b.NewBlock("endif")
	els := exit
	if x.Else != nil {
		els = lo.b.NewBlock("else")
	}
	lo.b.Br(cond, then, els)
	lo.b.SetBlock(then)
	if err := lo.stmt(x.Then); err != nil {
		return err
	}
	if !lo.b.Terminated() {
		lo.b.Jmp(exit)
	}
	if x.Else != nil {
		lo.b.SetBlock(els)
		if err := lo.stmt(x.Else); err != nil {
			return err
		}
		if !lo.b.Terminated() {
			lo.b.Jmp(exit)
		}
	}
	lo.b.SetBlock(exit)
	return nil
}

func (lo *lowerer) whileStmt(x *WhileStmt) error {
	cond := lo.b.NewBlock("while.cond")
	body := lo.b.NewBlock("while.body")
	exit := lo.b.NewBlock("while.end")
	lo.b.Jmp(cond)
	lo.b.SetBlock(cond)
	cv, err := lo.truthy(x.Cond)
	if err != nil {
		return err
	}
	lo.b.Br(cv, body, exit)
	lo.b.SetBlock(body)
	lo.breaks = append(lo.breaks, exit)
	lo.conts = append(lo.conts, cond)
	if err := lo.stmt(x.Body); err != nil {
		return err
	}
	lo.breaks = lo.breaks[:len(lo.breaks)-1]
	lo.conts = lo.conts[:len(lo.conts)-1]
	if !lo.b.Terminated() {
		lo.b.Jmp(cond)
	}
	lo.b.SetBlock(exit)
	return nil
}

func (lo *lowerer) forStmt(x *ForStmt) error {
	lo.pushScope()
	defer lo.popScope()
	if x.Init != nil {
		if err := lo.stmt(x.Init); err != nil {
			return err
		}
	}
	cond := lo.b.NewBlock("for.cond")
	body := lo.b.NewBlock("for.body")
	post := lo.b.NewBlock("for.post")
	exit := lo.b.NewBlock("for.end")
	lo.b.Jmp(cond)
	lo.b.SetBlock(cond)
	if x.Cond != nil {
		cv, err := lo.truthy(x.Cond)
		if err != nil {
			return err
		}
		lo.b.Br(cv, body, exit)
	} else {
		lo.b.Jmp(body)
	}
	lo.b.SetBlock(body)
	lo.breaks = append(lo.breaks, exit)
	lo.conts = append(lo.conts, post)
	if err := lo.stmt(x.Body); err != nil {
		return err
	}
	lo.breaks = lo.breaks[:len(lo.breaks)-1]
	lo.conts = lo.conts[:len(lo.conts)-1]
	if !lo.b.Terminated() {
		lo.b.Jmp(post)
	}
	lo.b.SetBlock(post)
	if x.Post != nil {
		if err := lo.stmt(x.Post); err != nil {
			return err
		}
	}
	if !lo.b.Terminated() {
		lo.b.Jmp(cond)
	}
	lo.b.SetBlock(exit)
	return nil
}

// switchStmt lowers a switch into a comparison ladder. pmc switches do
// not fall through; break exits the switch (as in C).
func (lo *lowerer) switchStmt(x *SwitchStmt) error {
	v, vt, err := lo.value(x.X)
	if err != nil {
		return err
	}
	if !vt.IsInteger() {
		return lo.errf(x.Line, "switch requires an integer, not %s", vt)
	}
	v64, _ := lo.promote(v, vt)
	exit := lo.b.NewBlock("switch.end")
	lo.breaks = append(lo.breaks, exit)
	defer func() { lo.breaks = lo.breaks[:len(lo.breaks)-1] }()

	lowerBody := func(body []Stmt, line int) error {
		lo.pushScope()
		defer lo.popScope()
		for _, s := range body {
			if err := lo.stmt(s); err != nil {
				return err
			}
		}
		if !lo.b.Terminated() {
			lo.b.Jmp(exit)
		}
		return nil
	}

	for _, c := range x.Cases {
		body := lo.b.NewBlock("case.body")
		next := lo.b.NewBlock("case.next")
		// Match any of the labels.
		for i, lab := range c.Vals {
			lv, lt, err := lo.value(lab)
			if err != nil {
				return err
			}
			if !lt.IsInteger() {
				return lo.errf(c.Line, "case label must be an integer, not %s", lt)
			}
			lv64, _ := lo.promote(lv, lt)
			eq := lo.b.Cmp(ir.OpEq, v64, lv64)
			if i == len(c.Vals)-1 {
				lo.b.Br(eq, body, next)
			} else {
				more := lo.b.NewBlock("case.or")
				lo.b.Br(eq, body, more)
				lo.b.SetBlock(more)
			}
		}
		lo.b.SetBlock(body)
		if err := lowerBody(c.Body, c.Line); err != nil {
			return err
		}
		lo.b.SetBlock(next)
	}
	if err := lowerBody(x.Default, x.Line); err != nil {
		return err
	}
	lo.b.SetBlock(exit)
	return nil
}

func (lo *lowerer) returnStmt(x *ReturnStmt) error {
	if lo.fi.ret.Kind == TVoid {
		if x.X != nil {
			return lo.errf(x.Line, "void function returns a value")
		}
		lo.b.Ret(nil)
		return nil
	}
	if x.X == nil {
		return lo.errf(x.Line, "missing return value (function returns %s)", lo.fi.ret)
	}
	v, vt, err := lo.value(x.X)
	if err != nil {
		return err
	}
	cv, err := lo.convert(v, vt, lo.fi.ret, x.Line)
	if err != nil {
		return err
	}
	lo.b.Ret(cv)
	return nil
}
