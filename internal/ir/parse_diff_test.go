package ir

import (
	"bytes"
	"fmt"
)

// diffModules returns the first difference between two modules in any
// field a parse sets, or nil: the printed text; struct layouts; globals;
// signatures and numbering state; and per instruction its opcode, kinds,
// name, type, operands (by what they refer to, and which constant
// operands share one object), alloca and store types, ptradd offsets,
// callee, successors, location, ID, slot and block.
func diffModules(a, b *Module) error {
	if pa, pb := Print(a), Print(b); pa != pb {
		return fmt.Errorf("Print differs")
	}
	if a.Name != b.Name || len(a.Structs) != len(b.Structs) || len(a.Globals) != len(b.Globals) || len(a.Funcs) != len(b.Funcs) {
		return fmt.Errorf("module %q: name or table sizes differ", a.Name)
	}
	for i, sa := range a.Structs {
		sb := b.Structs[i]
		if sa.Name != sb.Name || sa.size != sb.size || sa.align != sb.align || len(sa.Fields) != len(sb.Fields) ||
			a.Struct(sa.Name) != sa || b.Struct(sb.Name) != sb {
			return fmt.Errorf("struct %%%s differs", sa.Name)
		}
		for k, fa := range sa.Fields {
			if fb := sb.Fields[k]; fa.Name != fb.Name || fa.Offset != fb.Offset || !sameType(a, b, fa.Type, fb.Type) {
				return fmt.Errorf("struct %%%s field %d differs", sa.Name, k)
			}
		}
	}
	for i, ga := range a.Globals {
		gb := b.Globals[i]
		if ga.Name != gb.Name || ga.PM != gb.PM || !sameType(a, b, ga.Elem, gb.Elem) || !bytes.Equal(ga.Init, gb.Init) ||
			(ga.Init == nil) != (gb.Init == nil) || a.Global(ga.Name) != ga || b.Global(gb.Name) != gb {
			return fmt.Errorf("global @%s differs", ga.Name)
		}
	}
	for i, fa := range a.Funcs {
		if err := diffFuncs(a, b, fa, b.Funcs[i]); err != nil {
			return fmt.Errorf("@%s: %w", fa.Name, err)
		}
	}
	return nil
}

func diffFuncs(ma, mb *Module, a, b *Func) error {
	if a.Name != b.Name || !sameType(ma, mb, a.Ret, b.Ret) || len(a.Params) != len(b.Params) ||
		a.Mod != ma || b.Mod != mb || ma.Func(a.Name) != a || mb.Func(b.Name) != b {
		return fmt.Errorf("signature differs")
	}
	for i, pa := range a.Params {
		if pb := b.Params[i]; pa.Name != pb.Name || pa.Index != pb.Index || !sameType(ma, mb, pa.Ty, pb.Ty) {
			return fmt.Errorf("parameter %d differs", i)
		}
	}
	if a.nextID != b.nextID || a.numSlots != b.numSlots || a.dirty != b.dirty || a.fp != b.fp ||
		a.Decoded() != nil || b.Decoded() != nil {
		return fmt.Errorf("numbering state differs")
	}
	if len(a.Blocks) != len(b.Blocks) || (a.Blocks == nil) != (b.Blocks == nil) {
		return fmt.Errorf("block count differs")
	}
	where := func(f *Func) map[any]string {
		at := map[any]string{}
		for i, blk := range f.Blocks {
			at[blk] = fmt.Sprintf("^%d", i)
			for k, in := range blk.Instrs {
				at[in] = fmt.Sprintf("%d.%d", i, k)
			}
		}
		for i, p := range f.Params {
			at[p] = fmt.Sprintf("param %d", i)
		}
		return at
	}
	atA, atB := where(a), where(b)
	firstA, firstB := map[*Const]int{}, map[*Const]int{}
	nConst := 0
	ref := func(m *Module, at map[any]string, first map[*Const]int, v Value) string {
		switch x := v.(type) {
		case *Global:
			if m.Global(x.Name) != x {
				return "foreign global"
			}
			return "@" + x.Name
		case *Const:
			if _, seen := first[x]; !seen {
				first[x] = nConst
			}
			return fmt.Sprintf("%s %d #%d", typeString(x.Ty), x.Val, first[x])
		}
		if s, ok := at[v]; ok {
			return s
		}
		return "foreign value"
	}
	for i, ba := range a.Blocks {
		bb := b.Blocks[i]
		if ba.Name != bb.Name || ba.fn != a || bb.fn != b || len(ba.Instrs) != len(bb.Instrs) {
			return fmt.Errorf("block %d differs", i)
		}
		for k, ia := range ba.Instrs {
			ib := bb.Instrs[k]
			if ia.Op != ib.Op || ia.FlushK != ib.FlushK || ia.FenceK != ib.FenceK || ia.Order != ib.Order || ia.RMWK != ib.RMWK ||
				ia.Name != ib.Name || !sameType(ma, mb, ia.Ty, ib.Ty) || ia.blk != ba || ib.blk != bb ||
				ia.ID != ib.ID || ia.Slot != ib.Slot || ia.Loc() != ib.Loc() {
				return fmt.Errorf("instruction %d.%d differs", i, k)
			}
			if len(ia.Args) != len(ib.Args) || (ia.Args == nil) != (ib.Args == nil) {
				return fmt.Errorf("instruction %d.%d: operand count differs", i, k)
			}
			for n := range ia.Args {
				nConst++
				if ra, rb := ref(ma, atA, firstA, ia.Args[n]), ref(mb, atB, firstB, ib.Args[n]); ra != rb {
					return fmt.Errorf("instruction %d.%d operand %d: %s, %s", i, k, n, ra, rb)
				}
			}
			if !sameType(ma, mb, ia.AllocTy(), ib.AllocTy()) || !sameType(ma, mb, ia.StoreTy(), ib.StoreTy()) ||
				ia.Scale() != ib.Scale() || ia.Disp() != ib.Disp() {
				return fmt.Errorf("instruction %d.%d: type or offsets differ", i, k)
			}
			if ca, cb := ia.Callee(), ib.Callee(); (ca == nil) != (cb == nil) || ca != nil && (ca.Name != cb.Name || ma.Func(ca.Name) != ca || mb.Func(cb.Name) != cb) {
				return fmt.Errorf("instruction %d.%d: callee differs", i, k)
			}
			sa, sb := ia.Succs(), ib.Succs()
			if len(sa) != len(sb) {
				return fmt.Errorf("instruction %d.%d: successor count differs", i, k)
			}
			for n := range sa {
				if atA[sa[n]] != atB[sb[n]] || atA[sa[n]] == "" {
					return fmt.Errorf("instruction %d.%d: successor %d differs", i, k, n)
				}
			}
		}
	}
	return nil
}

// sameType reports whether ta in module a and tb in module b spell the
// same and are the same objects where the IR interns them: the scalar
// singletons and each module's struct types.
func sameType(a, b *Module, ta, tb Type) bool {
	if (ta == nil) != (tb == nil) {
		return false
	}
	switch x := ta.(type) {
	case nil:
		return true
	case *BasicType:
		return ta == tb
	case *StructType:
		y, ok := tb.(*StructType)
		return ok && x.Name == y.Name && a.Struct(x.Name) == x && b.Struct(y.Name) == y
	case *ArrayType:
		y, ok := tb.(*ArrayType)
		return ok && x.Len == y.Len && sameType(a, b, x.Elem, y.Elem)
	}
	return false
}
