package lang

import (
	"fmt"

	"hippocrates/internal/ir"
)

// TKind enumerates the semantic type kinds of pmc.
type TKind int

// The semantic type kinds.
const (
	TInt TKind = iota
	TByte
	TBool
	TVoid
	TPtr
	TArray
	TStruct
)

// Type is a resolved pmc type.
type Type struct {
	Kind   TKind
	Elem   *Type          // TPtr / TArray
	Len    int64          // TArray
	Struct *ir.StructType // TStruct
}

// The basic type singletons.
var (
	tyInt  = &Type{Kind: TInt}
	tyByte = &Type{Kind: TByte}
	tyBool = &Type{Kind: TBool}
	tyVoid = &Type{Kind: TVoid}
)

func ptrTo(e *Type) *Type { return &Type{Kind: TPtr, Elem: e} }
func arrayOf(e *Type, n int64) *Type {
	return &Type{Kind: TArray, Elem: e, Len: n}
}

func (t *Type) String() string {
	switch t.Kind {
	case TInt:
		return "int"
	case TByte:
		return "byte"
	case TBool:
		return "bool"
	case TVoid:
		return "void"
	case TPtr:
		return t.Elem.String() + "*"
	case TArray:
		return fmt.Sprintf("%s[%d]", t.Elem, t.Len)
	case TStruct:
		return t.Struct.Name
	}
	return fmt.Sprintf("type(%d)", int(t.Kind))
}

// IR maps the pmc type to its IR representation.
func (t *Type) IR() ir.Type {
	switch t.Kind {
	case TInt:
		return ir.I64
	case TByte:
		return ir.I8
	case TBool:
		return ir.I1
	case TVoid:
		return ir.Void
	case TPtr:
		return ir.Ptr
	case TArray:
		return ir.Array(t.Elem.IR(), t.Len)
	case TStruct:
		return t.Struct
	}
	panic("lang: bad type kind")
}

// Size returns the type's size in bytes.
func (t *Type) Size() int64 { return t.IR().Size() }

// IsInteger reports int or byte.
func (t *Type) IsInteger() bool { return t.Kind == TInt || t.Kind == TByte }

// IsScalar reports a register-representable type.
func (t *Type) IsScalar() bool {
	switch t.Kind {
	case TInt, TByte, TBool, TPtr:
		return true
	}
	return false
}

// isBytePtr reports byte* (pmc's "void pointer": it converts implicitly to
// and from any other pointer type).
func (t *Type) isBytePtr() bool {
	return t.Kind == TPtr && t.Elem.Kind == TByte
}

// equal reports structural type equality (structs by identity of the
// interned ir.StructType).
func (t *Type) equal(o *Type) bool {
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case TPtr:
		return t.Elem.equal(o.Elem)
	case TArray:
		return t.Len == o.Len && t.Elem.equal(o.Elem)
	case TStruct:
		return t.Struct == o.Struct
	}
	return true
}
