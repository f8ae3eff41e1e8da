// Package ir defines the intermediate representation that the whole
// repository is built around: a typed, register-based IR in the shape of
// unoptimized compiler output (explicit allocas, loads and stores, direct
// calls, branches) extended with the persistent-memory primitives the
// Hippocrates paper reasons about — cache-line flushes (CLWB, CLFLUSHOPT,
// CLFLUSH), memory fences (SFENCE, MFENCE) and non-temporal stores.
//
// The package provides construction (Builder), verification (Verify),
// a stable textual form (Print/ParseModule round-trip), and structural
// cloning: CloneFunc for the persistent subprogram transformation,
// CloneModule for a private copy of a whole module.
package ir

import "fmt"

// Type is the type of an IR value or of an allocated object. SSA values
// only ever have scalar types (void, i1, i8, i64, ptr); aggregate types
// (arrays and structs) describe memory layouts for allocas and globals.
type Type interface {
	// Size returns the object size in bytes.
	Size() int64
	// Align returns the required alignment in bytes (at least 1).
	Align() int64
	// String returns the textual spelling used by the printer and parser.
	String() string
}

// BasicKind enumerates the scalar types.
type BasicKind int

// The scalar type kinds.
const (
	KindVoid BasicKind = iota
	KindI1
	KindI8
	KindI64
	KindPtr
)

// BasicType is one of the scalar types. Pointers are opaque (untyped), as
// in modern LLVM; loads, stores and allocas carry the pointee type
// themselves.
type BasicType struct {
	K BasicKind
}

// The singleton scalar types.
var (
	Void = &BasicType{KindVoid}
	I1   = &BasicType{KindI1}
	I8   = &BasicType{KindI8}
	I64  = &BasicType{KindI64}
	Ptr  = &BasicType{KindPtr}
)

// Size implements Type.
func (t *BasicType) Size() int64 {
	switch t.K {
	case KindVoid:
		return 0
	case KindI1, KindI8:
		return 1
	case KindI64, KindPtr:
		return 8
	}
	panic(fmt.Sprintf("ir: unknown basic kind %d", t.K))
}

// Align implements Type.
func (t *BasicType) Align() int64 {
	if s := t.Size(); s > 0 {
		return s
	}
	return 1
}

func (t *BasicType) String() string {
	switch t.K {
	case KindVoid:
		return "void"
	case KindI1:
		return "i1"
	case KindI8:
		return "i8"
	case KindI64:
		return "i64"
	case KindPtr:
		return "ptr"
	}
	panic(fmt.Sprintf("ir: unknown basic kind %d", t.K))
}

// IsInt reports whether t is one of the integer types (i1, i8, i64).
func IsInt(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && (b.K == KindI1 || b.K == KindI8 || b.K == KindI64)
}

// IsPtr reports whether t is the pointer type.
func IsPtr(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.K == KindPtr
}

// IsScalar reports whether t is a legal SSA value type other than void.
func IsScalar(t Type) bool {
	b, ok := t.(*BasicType)
	return ok && b.K != KindVoid
}

// ArrayType is a fixed-length sequence of elements, used as an allocation
// layout for allocas and globals.
type ArrayType struct {
	Elem Type
	Len  int64
}

// Array returns the array type [n x elem].
func Array(elem Type, n int64) *ArrayType { return &ArrayType{Elem: elem, Len: n} }

// Size implements Type.
func (t *ArrayType) Size() int64 { return t.Elem.Size() * t.Len }

// Align implements Type.
func (t *ArrayType) Align() int64 { return t.Elem.Align() }

func (t *ArrayType) String() string { return typeString(t) }

// Field is one member of a struct type, with its computed byte offset.
type Field struct {
	Name   string
	Type   Type
	Offset int64
}

// StructType is a named aggregate with C-style layout: each field aligned
// to its natural alignment, total size rounded up to the struct alignment.
type StructType struct {
	Name   string
	Fields []Field

	size  int64
	align int64
}

// NewStruct builds a struct type, computing field offsets and total size.
// Field offsets in the supplied slice are overwritten.
func NewStruct(name string, fields []Field) *StructType {
	st := &StructType{Name: name, Fields: fields}
	var off, maxAlign int64
	maxAlign = 1
	for i := range st.Fields {
		a := st.Fields[i].Type.Align()
		if a > maxAlign {
			maxAlign = a
		}
		off = roundUp(off, a)
		st.Fields[i].Offset = off
		off += st.Fields[i].Type.Size()
	}
	st.align = maxAlign
	st.size = roundUp(off, maxAlign)
	return st
}

func roundUp(n, a int64) int64 {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Size implements Type.
func (t *StructType) Size() int64 { return t.size }

// Align implements Type.
func (t *StructType) Align() int64 { return t.align }

func (t *StructType) String() string { return typeString(t) }

// FieldByName returns the field with the given name, or nil.
func (t *StructType) FieldByName(name string) *Field {
	for i := range t.Fields {
		if t.Fields[i].Name == name {
			return &t.Fields[i]
		}
	}
	return nil
}

// TypeEqual reports structural equality of two types. Struct types compare
// by name (they are interned per module).
func TypeEqual(a, b Type) bool {
	switch x := a.(type) {
	case *BasicType:
		y, ok := b.(*BasicType)
		return ok && x.K == y.K
	case *ArrayType:
		y, ok := b.(*ArrayType)
		return ok && x.Len == y.Len && TypeEqual(x.Elem, y.Elem)
	case *StructType:
		y, ok := b.(*StructType)
		return ok && x.Name == y.Name
	}
	return false
}
