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
