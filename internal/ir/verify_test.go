package ir

import (
	"strings"
	"testing"
)

// findInstr returns the first instruction with the given opcode in fn.
func findInstr(t *testing.T, m *Module, fn string, op Op) *Instr {
	t.Helper()
	f := m.Func(fn)
	if f == nil {
		t.Fatalf("no function %s", fn)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				return in
			}
		}
	}
	t.Fatalf("no %s in %s", op, fn)
	return nil
}

// TestVerifyPersistencyHardening checks that the verifier rejects malformed
// persistence primitives: flushes and NT stores must address through a
// pointer, fences take no operands, kind tags must be in range, and none of
// them may produce a result. Each case mutates one well-formed instruction.
func TestVerifyPersistencyHardening(t *testing.T) {
	cases := []struct {
		name string
		mut  func(m *Module)
		want string
	}{
		{
			name: "flush of non-pointer",
			mut: func(m *Module) {
				findInstr(t, m, "store_key", OpFlush).Args[0] = ConstInt(64)
			},
			want: "must be ptr",
		},
		{
			name: "flush arity",
			mut: func(m *Module) {
				in := findInstr(t, m, "store_key", OpFlush)
				in.Args = append(in.Args, ConstInt(1))
			},
			want: "operands",
		},
		{
			name: "flush kind out of range",
			mut: func(m *Module) {
				findInstr(t, m, "store_key", OpFlush).FlushK = FlushKind(99)
			},
			want: "flush kind",
		},
		{
			name: "flush with result",
			mut: func(m *Module) {
				in := findInstr(t, m, "store_key", OpFlush)
				in.Ty = I64
				in.Name = "bogus"
			},
			want: "result",
		},
		{
			name: "fence with operand",
			mut: func(m *Module) {
				in := findInstr(t, m, "store_key", OpFence)
				in.Args = []Value{ConstInt(0)}
			},
			want: "operands",
		},
		{
			name: "fence kind out of range",
			mut: func(m *Module) {
				findInstr(t, m, "store_key", OpFence).FenceK = FenceKind(255)
			},
			want: "fence kind",
		},
		{
			name: "fence with result",
			mut: func(m *Module) {
				in := findInstr(t, m, "store_key", OpFence)
				in.Ty = I1
				in.Name = "bogus"
			},
			want: "result",
		},
		{
			name: "ntstore through non-pointer",
			mut: func(m *Module) {
				findInstr(t, m, "main", OpNTStore).Args[1] = ConstInt(0)
			},
			want: "must be ptr",
		},
		{
			name: "ntstore with result",
			mut: func(m *Module) {
				in := findInstr(t, m, "main", OpNTStore)
				in.Ty = I64
				in.Name = "bogus"
			},
			want: "result",
		},
		{
			name: "store through non-pointer",
			mut: func(m *Module) {
				findInstr(t, m, "store_key", OpStore).Args[1] = ConstInt(8)
			},
			want: "must be ptr",
		},
		{
			name: "store with result",
			mut: func(m *Module) {
				in := findInstr(t, m, "store_key", OpStore)
				in.Ty = I64
				in.Name = "bogus"
			},
			want: "result",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := buildSample(t)
			c.mut(m)
			err := verifyBoth(t, m)
			if err == nil {
				t.Fatal("Verify accepted a malformed persistence primitive")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestVerifyScratchDoesNotLeak: the verifier reuses its scratch from one
// function to the next, so neither a value nor a parameter of an earlier
// function may count as defined in a later one, however much of the
// scratch the earlier one filled.
func TestVerifyScratchDoesNotLeak(t *testing.T) {
	for _, use := range []string{"value", "param"} {
		t.Run(use, func(t *testing.T) {
			m := NewModule("leak")
			big := NewFunc("big", I64, &Param{Name: "p", Ty: I64})
			m.AddFunc(big)
			b := NewBuilder(big)
			acc := Value(big.Params[0])
			for i := 0; i < 500; i++ {
				acc = b.Bin(OpAdd, I64, acc, ConstInt(int64(i)))
			}
			b.Ret(acc)
			big.Renumber()

			foreign := acc
			if use == "param" {
				foreign = big.Params[0]
			}
			small := NewFunc("small", I64)
			m.AddFunc(small)
			sb := NewBuilder(small)
			sb.Ret(sb.Bin(OpAdd, I64, foreign, ConstInt(1)))
			small.Renumber()

			err := verifyBoth(t, m)
			if err == nil || !strings.Contains(err.Error(), "defined outside @small") {
				t.Errorf("Verify = %v, want an operand defined outside @small", err)
			}
		})
	}
}

// TestVerifyRejectsOverflowingLayouts: a global or alloca layout whose
// byte size overflows int64, or that holds a negative array length, is
// malformed at any depth of arrays and structs; Size alone wraps, so
// [2^61 x i64] would otherwise have size 0 and the next global would be
// laid out on top of it. The largest sizes that do fit are accepted.
func TestVerifyRejectsOverflowingLayouts(t *testing.T) {
	body := "func @main() -> i64 {\nentry:\n  ret i64 0\n}\n"
	alloca := func(ty string) string {
		return "func @main() -> i64 {\nentry:\n  %a = alloca " + ty + "\n  ret i64 0\n}\n"
	}
	cases := []struct {
		name, src, want string
	}{
		{"array wraps to zero", "pm global @g: [2305843009213693952 x i64]\npm global @h: i64\n" + body, "global @g: array [2305843009213693952 x i64] is larger than"},
		{"negative length", "global @g: [-1 x i64]\n" + body, "global @g: array [-1 x i64] has a negative length"},
		{"nested array", "global @g: [4 x [2305843009213693952 x i8]]\n" + body, "global @g: array [4 x [2305843009213693952 x i8]] is larger than"},
		{"nested negative", "global @g: [2 x [-3 x i8]]\n" + body, "negative length"},
		{"struct field", "struct %S { a: i64, b: [1152921504606846975 x i64] }\nglobal @g: %S\n" + body, "struct %S is larger than"},
		{"struct of struct", "struct %T { a: [9223372036854775800 x i8] }\nstruct %S { t: %T, u: %T }\nglobal @g: [1 x %S]\n" + body, "struct %S is larger than"},
		{"alloca", alloca("[1152921504606846976 x i64]"), "array [1152921504606846976 x i64] is larger than"},
	}
	for _, tc := range cases {
		m, err := ParseModule("module t\n" + tc.src)
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		if err := Verify(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Verify = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	for _, ok := range []string{
		"global @g: [1152921504606846975 x i64]\n" + body,
		"struct %S { a: i8, b: [1152921504606846974 x i64] }\nglobal @g: %S\n" + body,
		"global @g: [0 x i64]\n" + body,
	} {
		m, err := ParseModule("module t\n" + ok)
		if err != nil {
			t.Fatal(err)
		}
		if err := Verify(m); err != nil {
			t.Errorf("Verify rejected a layout that fits: %v\n%s", err, ok)
		}
	}
}
