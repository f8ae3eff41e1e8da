package ir

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
)

// Verify checks module well-formedness: every block terminated exactly at
// its end, operand types consistent, operands defined in the same function,
// call signatures matched, and branch targets within the function. The fix
// pass runs it after every transformation ("do no harm" starts with not
// corrupting the IR). One verifier's scratch serves every function of the
// module, so a verify allocates in proportion to its largest function,
// not to the module.
func Verify(m *Module) error {
	var v verifier
	var errs []error
	for _, g := range m.Globals {
		if _, err := layoutSize(g.Elem); err != nil {
			errs = append(errs, fmt.Errorf("global @%s: %w", g.Name, err))
		}
	}
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := v.function(f); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// verifier holds the scratch of one Verify call. function resets it
// before each use; nothing in it outlives the function it describes.
type verifier struct {
	// results holds the function's named results sorted by name, then
	// in layout order: equal names are neighbours, and dominance finds a
	// result's position in its block by binary search.
	results []result
	doms    Dominators
}

// result is one named result-producing instruction of the function
// being verified.
type result struct {
	name string
	in   *Instr
	// k is the result's index among the function's named results, in
	// layout order; pos is its index in its block.
	k, pos int32
}

// sortResults fills v.results from f and returns the k of the first
// result, in layout order, whose name an earlier result already has (-1
// if the names are unique).
func (v *verifier) sortResults(f *Func) int32 {
	res := slices.Grow(v.results[:0], f.NumInstrs())
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.HasResult() && in.Name != "" {
				res = append(res, result{name: in.Name, in: in, k: int32(len(res)), pos: int32(i)})
			}
		}
	}
	// Stable, so equal names stay in layout order.
	slices.SortStableFunc(res, func(a, b result) int { return strings.Compare(a.name, b.name) })
	v.results = res
	dup := int32(-1)
	for i := 1; i < len(res); i++ {
		if res[i].name == res[i-1].name && (dup < 0 || res[i].k < dup) {
			dup = res[i].k
		}
	}
	return dup
}

// position returns the index of result def in its block, or -1 if def
// is not one of the function's named results.
func (v *verifier) position(def *Instr) int {
	i, ok := slices.BinarySearchFunc(v.results, def.Name, func(r result, name string) int { return strings.Compare(r.name, name) })
	if !ok || v.results[i].in != def {
		return -1
	}
	return int(v.results[i].pos)
}

func (v *verifier) function(f *Func) error {
	ctx := func(b *Block, in *Instr, format string, args ...any) error {
		return fmt.Errorf("@%s/^%s: %s: %s", f.Name, b.Name, FormatInstr(in), fmt.Sprintf(format, args...))
	}
	dup, k := v.sortResults(f), int32(0)
	for _, b := range f.Blocks {
		if len(b.Instrs) == 0 {
			return fmt.Errorf("@%s/^%s: empty block", f.Name, b.Name)
		}
		for i, in := range b.Instrs {
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return ctx(b, in, "block does not end in a terminator")
				}
				return ctx(b, in, "terminator in the middle of a block")
			}
			if in.HasResult() {
				if in.Name == "" {
					return ctx(b, in, "unnamed result")
				}
				if k == dup {
					return ctx(b, in, "duplicate result name %%%s", in.Name)
				}
				k++
			}
			for _, a := range in.Args {
				switch x := a.(type) {
				case *Const, *Global:
					// Always fine.
				case *Param, *Instr:
					if !definedIn(f, x) {
						return ctx(b, in, "operand %s defined outside @%s", a.OperandString(), f.Name)
					}
				default:
					return ctx(b, in, "unknown operand kind %T", a)
				}
				if !IsScalar(a.Type()) {
					return ctx(b, in, "operand %s has non-scalar type %s", a.OperandString(), a.Type())
				}
			}
			if err := verifyInstr(f, in); err != nil {
				return ctx(b, in, "%s", err)
			}
		}
	}
	return v.dominance(f)
}

// definedIn reports whether v, a parameter or an instruction, is one of
// f's parameters or result-producing instructions, by the back-pointers
// the value keeps: a parameter's index, an instruction's block.
func definedIn(f *Func, v Value) bool {
	switch x := v.(type) {
	case *Param:
		return x.Index >= 0 && x.Index < len(f.Params) && f.Params[x.Index] == x
	case *Instr:
		return x.blk != nil && x.blk.fn == f && x.HasResult()
	}
	return false
}

func verifyInstr(f *Func, in *Instr) error {
	want := func(n int) error {
		if len(in.Args) != n {
			return fmt.Errorf("want %d operands, have %d", n, len(in.Args))
		}
		return nil
	}
	ptrArg := func(i int) error {
		if !IsPtr(in.Args[i].Type()) {
			return fmt.Errorf("operand %d must be ptr, is %s", i, in.Args[i].Type())
		}
		return nil
	}
	noResult := func() error {
		if in.HasResult() {
			return fmt.Errorf("%s must not produce a result", in.Op)
		}
		return nil
	}
	switch in.Op {
	case OpAlloca:
		if in.AllocTy() == nil {
			return fmt.Errorf("alloca of zero-size type")
		}
		if size, err := layoutSize(in.AllocTy()); err != nil {
			return err
		} else if size <= 0 {
			return fmt.Errorf("alloca of zero-size type")
		}
		return want(0)
	case OpLoad:
		if err := want(1); err != nil {
			return err
		}
		if !IsScalar(in.Ty) {
			return fmt.Errorf("load of non-scalar type %s", in.Ty)
		}
		return ptrArg(0)
	case OpStore, OpNTStore:
		if err := want(2); err != nil {
			return err
		}
		if err := noResult(); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), in.StoreTy()) {
			return fmt.Errorf("stored value type %s != store type %s", in.Args[0].Type(), in.StoreTy())
		}
		return ptrArg(1)
	case OpPtrAdd:
		if err := want(2); err != nil {
			return err
		}
		if err := ptrArg(0); err != nil {
			return err
		}
		if !TypeEqual(in.Args[1].Type(), I64) {
			return fmt.Errorf("ptradd index must be i64")
		}
		return nil
	case OpCall:
		callee := in.Callee()
		if callee == nil {
			return fmt.Errorf("call without callee")
		}
		if f.Mod != nil && f.Mod.Func(callee.Name) != callee {
			return fmt.Errorf("callee @%s not in module", callee.Name)
		}
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("call to %s with %d args", callee.Sig(), len(in.Args))
		}
		for i, a := range in.Args {
			if !TypeEqual(a.Type(), callee.Params[i].Ty) {
				return fmt.Errorf("arg %d: have %s, want %s", i, a.Type(), callee.Params[i].Ty)
			}
		}
		if !TypeEqual(in.Ty, callee.Ret) {
			return fmt.Errorf("call result type %s != return type %s", in.Ty, callee.Ret)
		}
		return nil
	case OpBr:
		if err := want(1); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), I1) {
			return fmt.Errorf("branch condition must be i1")
		}
		return checkSuccs(f, in, 2)
	case OpJmp:
		if err := want(0); err != nil {
			return err
		}
		return checkSuccs(f, in, 1)
	case OpRet:
		if TypeEqual(f.Ret, Void) {
			if len(in.Args) != 0 {
				return fmt.Errorf("ret with value in void function")
			}
			return nil
		}
		if err := want(1); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), f.Ret) {
			return fmt.Errorf("ret %s from function returning %s", in.Args[0].Type(), f.Ret)
		}
		return nil
	case OpFlush:
		if err := want(1); err != nil {
			return err
		}
		if err := noResult(); err != nil {
			return err
		}
		if in.FlushK < CLWB || in.FlushK > CLFLUSH {
			return fmt.Errorf("invalid flush kind %s", in.FlushK)
		}
		return ptrArg(0)
	case OpFence:
		if err := want(0); err != nil {
			return err
		}
		if err := noResult(); err != nil {
			return err
		}
		if in.FenceK != SFENCE && in.FenceK != MFENCE {
			return fmt.Errorf("invalid fence kind %s", in.FenceK)
		}
		return nil
	case OpSpawn:
		callee := in.Callee()
		if callee == nil {
			return fmt.Errorf("spawn without callee")
		}
		if f.Mod != nil && f.Mod.Func(callee.Name) != callee {
			return fmt.Errorf("spawn callee @%s not in module", callee.Name)
		}
		if callee.IsDecl() {
			return fmt.Errorf("spawn of declared-only @%s", callee.Name)
		}
		if len(in.Args) != len(callee.Params) {
			return fmt.Errorf("spawn of %s with %d args", callee.Sig(), len(in.Args))
		}
		for i, a := range in.Args {
			if !TypeEqual(a.Type(), callee.Params[i].Ty) {
				return fmt.Errorf("spawn arg %d: have %s, want %s", i, a.Type(), callee.Params[i].Ty)
			}
		}
		if !TypeEqual(in.Ty, I64) {
			return fmt.Errorf("spawn result must be i64 (thread handle)")
		}
		return nil
	case OpJoin:
		if err := want(1); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), I64) {
			return fmt.Errorf("join handle must be i64")
		}
		if !TypeEqual(in.Ty, I64) {
			return fmt.Errorf("join result must be i64")
		}
		return nil
	case OpAtomicLoad:
		if err := want(1); err != nil {
			return err
		}
		if !TypeEqual(in.Ty, I64) {
			return fmt.Errorf("atomicload result must be i64")
		}
		if in.Order != OrderAcquire && in.Order != OrderSeqCst {
			return fmt.Errorf("atomicload order must be acquire or seqcst, is %s", in.Order)
		}
		return ptrArg(0)
	case OpAtomicStore:
		if err := want(2); err != nil {
			return err
		}
		if err := noResult(); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), I64) || !TypeEqual(in.StoreTy(), I64) {
			return fmt.Errorf("atomicstore value must be i64")
		}
		if in.Order != OrderRelease && in.Order != OrderSeqCst {
			return fmt.Errorf("atomicstore order must be release or seqcst, is %s", in.Order)
		}
		return ptrArg(1)
	case OpAtomicRMW:
		if err := want(2); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), I64) || !TypeEqual(in.Ty, I64) {
			return fmt.Errorf("atomicrmw operates on i64")
		}
		if in.Order != OrderSeqCst {
			return fmt.Errorf("atomicrmw order must be seqcst, is %s", in.Order)
		}
		if in.RMWK != RMWAdd && in.RMWK != RMWXchg {
			return fmt.Errorf("invalid rmw kind %s", in.RMWK)
		}
		return ptrArg(1)
	case OpAtomicCAS:
		if err := want(3); err != nil {
			return err
		}
		if !TypeEqual(in.Args[0].Type(), I64) || !TypeEqual(in.Args[1].Type(), I64) || !TypeEqual(in.Ty, I64) {
			return fmt.Errorf("atomiccas operates on i64")
		}
		if in.Order != OrderSeqCst {
			return fmt.Errorf("atomiccas order must be seqcst, is %s", in.Order)
		}
		return ptrArg(2)
	default:
		switch {
		case in.Op.IsBinary():
			if err := want(2); err != nil {
				return err
			}
			if !IsInt(in.Ty) {
				return fmt.Errorf("binary op on non-integer type %s", in.Ty)
			}
			for i := range in.Args {
				if !TypeEqual(in.Args[i].Type(), in.Ty) {
					return fmt.Errorf("operand %d type %s != result type %s", i, in.Args[i].Type(), in.Ty)
				}
			}
			return nil
		case in.Op.IsCmp():
			if err := want(2); err != nil {
				return err
			}
			if !TypeEqual(in.Ty, I1) {
				return fmt.Errorf("comparison result must be i1")
			}
			if !TypeEqual(in.Args[0].Type(), in.Args[1].Type()) {
				return fmt.Errorf("comparison of mismatched types %s and %s", in.Args[0].Type(), in.Args[1].Type())
			}
			return nil
		case in.Op.IsCast():
			if err := want(1); err != nil {
				return err
			}
			from, to := in.Args[0].Type(), in.Ty
			switch in.Op {
			case OpZExt, OpTrunc:
				if !IsInt(from) || !IsInt(to) {
					return fmt.Errorf("integer cast between %s and %s", from, to)
				}
			case OpPtrToInt:
				if !IsPtr(from) || !TypeEqual(to, I64) {
					return fmt.Errorf("ptrtoint between %s and %s", from, to)
				}
			case OpIntToPtr:
				if !TypeEqual(from, I64) || !IsPtr(to) {
					return fmt.Errorf("inttoptr between %s and %s", from, to)
				}
			}
			return nil
		}
		return fmt.Errorf("unknown opcode %s", in.Op)
	}
}

func checkSuccs(f *Func, in *Instr, n int) error {
	if len(in.Succs()) != n {
		return fmt.Errorf("want %d successors, have %d", n, len(in.Succs()))
	}
	for _, s := range in.Succs() {
		if s == nil {
			return fmt.Errorf("nil successor")
		}
		if s.fn != f {
			return fmt.Errorf("successor ^%s in another function", s.Name)
		}
	}
	return nil
}

// layoutSize returns the byte size of an allocation layout, computed with
// every product and sum checked: Size itself wraps, so an array whose
// length is negative or whose size overflows int64, at any depth of
// arrays and structs, would otherwise get a small or negative size and
// be laid out on top of its neighbours.
func layoutSize(t Type) (int64, error) {
	switch x := t.(type) {
	case *ArrayType:
		if x.Len < 0 {
			return 0, fmt.Errorf("array %s has a negative length", t)
		}
		elem, err := layoutSize(x.Elem)
		if err != nil {
			return 0, err
		}
		if x.Len > 0 && elem > math.MaxInt64/x.Len {
			return 0, fmt.Errorf("array %s is larger than %d bytes", t, int64(math.MaxInt64))
		}
		return elem * x.Len, nil
	case *StructType:
		var off int64
		for _, f := range x.Fields {
			size, err := layoutSize(f.Type)
			if err != nil {
				return 0, err
			}
			if off, err = alignUp(off, f.Type.Align(), t); err != nil {
				return 0, err
			}
			if size > math.MaxInt64-off {
				return 0, fmt.Errorf("struct %s is larger than %d bytes", t, int64(math.MaxInt64))
			}
			off += size
		}
		return alignUp(off, x.Align(), t)
	case nil:
		return 0, nil
	}
	return t.Size(), nil
}

// alignUp is roundUp with an overflow check.
func alignUp(n, a int64, t Type) (int64, error) {
	if a > 1 && n > math.MaxInt64-(a-1) {
		return 0, fmt.Errorf("struct %s is larger than %d bytes", t, int64(math.MaxInt64))
	}
	return roundUp(n, a), nil
}
