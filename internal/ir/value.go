package ir

// Value is anything that can appear as an instruction operand: constants,
// globals, function parameters, and instruction results.
type Value interface {
	// Type returns the value's scalar type.
	Type() Type
	// OperandString returns the operand spelling, e.g. "42", "%x", "@g".
	OperandString() string
}

// Const is an integer (or null-pointer) constant.
type Const struct {
	Ty  Type
	Val int64
}

// ConstInt returns an i64 constant.
func ConstInt(v int64) *Const { return &Const{Ty: I64, Val: v} }

// ConstI8 returns an i8 constant.
func ConstI8(v int64) *Const { return &Const{Ty: I8, Val: v & 0xff} }

// ConstBool returns an i1 constant.
func ConstBool(v bool) *Const {
	if v {
		return &Const{Ty: I1, Val: 1}
	}
	return &Const{Ty: I1, Val: 0}
}

// Null returns the null pointer constant.
func Null() *Const { return &Const{Ty: Ptr, Val: 0} }

// Type implements Value.
func (c *Const) Type() Type { return c.Ty }

// OperandString implements Value.
func (c *Const) OperandString() string { return operandString(c) }

// Global is a module-level variable. Its value is the address of the
// underlying object, so its type as an operand is always ptr. PM globals
// live in the persistent-memory address range of the simulated machine.
type Global struct {
	Name string
	// Elem is the layout of the allocated object.
	Elem Type
	// PM marks the global as residing in persistent memory.
	PM bool
	// Init is the optional initial byte image; when shorter than
	// Elem.Size() the remainder is zero.
	Init []byte
}

// Type implements Value.
func (g *Global) Type() Type { return Ptr }

// OperandString implements Value.
func (g *Global) OperandString() string { return operandString(g) }

// Param is a function parameter.
type Param struct {
	Name  string
	Ty    Type
	Index int
}

// Type implements Value.
func (p *Param) Type() Type { return p.Ty }

// OperandString implements Value.
func (p *Param) OperandString() string { return operandString(p) }
