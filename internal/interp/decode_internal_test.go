package interp

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"hippocrates/internal/ir"
	"hippocrates/internal/trace"
)

// buildBody makes a module with a PM global g and main built by build.
func buildBody(name string, build func(m *ir.Module, f *ir.Func, b *ir.Builder)) *ir.Module {
	m := newModule(name)
	m.AddGlobal(&ir.Global{Name: "g", Elem: ir.I64, PM: true})
	f := m.AddFunc(ir.NewFunc("main", ir.I64))
	build(m, f, ir.NewBuilder(f))
	return m
}

// TestMalformedBodyFaults: a body the verifier rejects for its blocks
// (one that falls through, a branch or return mid-block, an empty
// block), run in process without verifying, faults on entry with a
// RuntimeError naming the function and the block, before any of its
// instructions runs.
func TestMalformedBodyFaults(t *testing.T) {
	cases := map[string]func(m *ir.Module, f *ir.Func, b *ir.Builder){
		"fall-through": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Store(ir.I64, ir.ConstInt(1), m.Global("g"))
		},
		"fall-through after fence": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Store(ir.I64, ir.ConstInt(1), m.Global("g"))
			b.Fence(ir.SFENCE)
		},
		"jmp mid-block": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			x := b.NewBlock("x")
			b.Jmp(x)
			b.Store(ir.I64, ir.ConstInt(2), m.Global("g"))
			b.SetBlock(x)
			b.Ret(b.Load(ir.I64, m.Global("g")))
		},
		"br mid-block": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			x, y := b.NewBlock("x"), b.NewBlock("y")
			b.Br(ir.ConstBool(false), x, y)
			b.Store(ir.I64, ir.ConstInt(3), m.Global("g"))
			b.Jmp(x)
			b.SetBlock(x)
			b.Ret(b.Load(ir.I64, m.Global("g")))
			b.SetBlock(y)
			b.Ret(ir.ConstInt(9))
		},
		"jmp to empty block": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			e := b.NewBlock("empty")
			b.Store(ir.I64, ir.ConstInt(4), m.Global("g"))
			b.Jmp(e)
		},
		"empty entry": func(m *ir.Module, f *ir.Func, b *ir.Builder) {},
		"ret mid-block": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Ret(ir.ConstInt(5))
			b.Store(ir.I64, ir.ConstInt(5), m.Global("g"))
		},
	}
	for name, build := range cases {
		m := buildBody(name, build)
		if ir.Verify(m) == nil {
			t.Fatalf("%s: verifier accepts the body", name)
		}
		tr := &trace.Trace{Program: name}
		mach, err := New(m, Options{Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		_, err = mach.Run("main")
		var re *RuntimeError
		if !errors.As(err, &re) || !strings.Contains(re.Msg, "@main is malformed") {
			t.Errorf("%s: err %v, want a RuntimeError naming @main", name, err)
			continue
		}
		if mach.Steps() != 1 || len(tr.Events) != 1 { // the PM global's alloc event
			t.Errorf("%s: %d steps, %d events before the fault", name, mach.Steps(), len(tr.Events))
		}
	}
}

// TestFaultsMatchTreeWalk: the faults of well-formed bodies happen on
// decoded ops exactly as on the tree-walker: same result, error and
// stack, steps, opcode counts, time and trace.
func TestFaultsMatchTreeWalk(t *testing.T) {
	cases := map[string]func(m *ir.Module, f *ir.Func, b *ir.Builder){
		"cannot execute": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Block().Append(&ir.Instr{Op: ir.OpInvalid, Ty: ir.Void})
			b.Ret(ir.ConstInt(0))
		},
		"unregistered external": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Call(m.AddFunc(ir.NewFunc("nope", ir.I64)))
			b.Ret(ir.ConstInt(0))
		},
		"division by zero": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Ret(b.Bin(ir.OpSRem, ir.I64, ir.ConstInt(7), b.Load(ir.I64, m.Global("g"))))
		},
		"invalid store": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Store(ir.I8, ir.ConstI8(1), ir.Null())
			b.Ret(ir.ConstInt(0))
		},
		"unknown global": func(m *ir.Module, f *ir.Func, b *ir.Builder) {
			b.Ret(b.Cast(ir.OpPtrToInt, ir.I64, &ir.Global{Name: "elsewhere", Elem: ir.I64}))
		},
	}
	for name, build := range cases {
		run := func(walk bool) (uint64, error, *Machine, *trace.Trace) {
			m := buildBody(name, build)
			tr := &trace.Trace{Program: name}
			mach, err := New(m, Options{Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			if walk {
				useTreeWalk(mach)
			}
			ret, err := mach.Run("main")
			return ret, err, mach, tr
		}
		ret, err, got, gotTr := run(false)
		wret, werr, want, wantTr := run(true)
		if ret != wret || !reflect.DeepEqual(err, werr) {
			t.Errorf("%s: ret %d err %v, tree-walk %d %v", name, ret, err, wret, werr)
			continue
		}
		if got.steps != want.steps || got.ops != want.ops || got.SimTime() != want.SimTime() || gotTr.String() != wantTr.String() {
			t.Errorf("%s: steps %d sim %v, tree-walk %d %v (or opcode counts or trace differ)", name, got.steps, got.SimTime(), want.steps, want.SimTime())
		}
		t.Logf("%s: ret %d, err %v", name, ret, err)
	}
}

// TestOpSize: a decoded op stays at 32 bytes on 64-bit hosts, so a
// function's translation costs about a sixth of its IR.
func TestOpSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) == 8 && unsafe.Sizeof(op{}) > 32 {
		t.Fatalf("op is %d bytes, want <= 32", unsafe.Sizeof(op{}))
	}
}

// TestArithmeticMatchesTreeWalk: every binary operation, comparison and
// cast, at each result type, and ptradd with immediate and 64-bit scales
// and displacements, computes on decoded ops what the
// tree-walker computes, over operands that exercise truncation, signed
// comparison and division, and shift counts past the width.
func TestArithmeticMatchesTreeWalk(t *testing.T) {
	vals := []uint64{0, 1, 2, 7, 0xff, 0x100, 0x1ff, 1 << 40, ^uint64(0), ^uint64(6), 63, 64, 1 << 63}
	types := []ir.Type{ir.I1, ir.I8, ir.I64, ir.Ptr}
	build := func(name string, body func(b *ir.Builder, x, y *ir.Param) ir.Value) *ir.Module {
		m := newModule(name)
		x, y := &ir.Param{Name: "x", Ty: ir.I64}, &ir.Param{Name: "y", Ty: ir.I64}
		f := m.AddFunc(ir.NewFunc("f", ir.I64, x, y))
		b := ir.NewBuilder(f)
		b.Ret(body(b, x, y))
		return m
	}
	var mods []*ir.Module
	for op := ir.OpAdd; op <= ir.OpAShr; op++ {
		for _, ty := range types {
			mods = append(mods, build(op.String()+"."+ty.String(), func(b *ir.Builder, x, y *ir.Param) ir.Value {
				return b.Bin(op, ty, x, y)
			}))
		}
	}
	for op := ir.OpEq; op <= ir.OpGe; op++ {
		mods = append(mods, build(op.String(), func(b *ir.Builder, x, y *ir.Param) ir.Value {
			return b.Cmp(op, x, y)
		}))
	}
	for op := ir.OpZExt; op <= ir.OpIntToPtr; op++ {
		for _, ty := range types {
			mods = append(mods, build(op.String()+"."+ty.String(), func(b *ir.Builder, x, y *ir.Param) ir.Value {
				return b.Cast(op, ty, x)
			}))
		}
	}
	for _, sd := range [][2]int64{{8, 16}, {-24, -1}, {1 << 33, 3}, {1, -(1 << 40)}} {
		mods = append(mods, build(fmt.Sprintf("ptradd*%d%+d", sd[0], sd[1]), func(b *ir.Builder, x, y *ir.Param) ir.Value {
			return b.Cast(ir.OpPtrToInt, ir.I64, b.PtrAdd(x, y, sd[0], sd[1]))
		}))
	}
	for _, m := range mods {
		for _, x := range vals {
			for _, y := range vals {
				run := func(walk bool) (uint64, error, *Machine) {
					mach, err := New(m, Options{})
					if err != nil {
						t.Fatal(err)
					}
					if walk {
						useTreeWalk(mach)
					}
					ret, err := mach.Run("f", x, y)
					return ret, err, mach
				}
				ret, err, got := run(false)
				wret, werr, want := run(true)
				if ret != wret || !reflect.DeepEqual(err, werr) || got.steps != want.steps || got.SimTime() != want.SimTime() {
					t.Fatalf("%s(%#x, %#x) = %#x, %v; tree-walk %#x, %v", m.Name, x, y, ret, err, wret, werr)
				}
			}
		}
	}
}
