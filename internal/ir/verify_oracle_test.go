package ir

import (
	"errors"
	"fmt"
	"testing"
)

// refVerify is Verify as first written, kept as the oracle for the
// verifier's reused scratch: every function gets fresh maps, a fresh
// dominator analysis and a fresh bitset per block per iteration.
func refVerify(m *Module) error {
	var errs []error
	for _, f := range m.Funcs {
		if f.IsDecl() {
			continue
		}
		if err := refVerifyFunc(f); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func refVerifyFunc(f *Func) error {
	ctx := func(b *Block, in *Instr, format string, args ...any) error {
		return fmt.Errorf("@%s/^%s: %s: %s", f.Name, b.Name, FormatInstr(in), fmt.Sprintf(format, args...))
	}
	defined := map[Value]bool{}
	for _, p := range f.Params {
		defined[p] = true
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasResult() {
				defined[in] = true
			}
		}
	}
	seenNames := map[string]bool{}
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
				if seenNames[in.Name] {
					return ctx(b, in, "duplicate result name %%%s", in.Name)
				}
				seenNames[in.Name] = true
			}
			for _, a := range in.Args {
				switch v := a.(type) {
				case *Const, *Global:
				case *Param, *Instr:
					if !defined[v] {
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
	return refVerifyDominance(f)
}

func refVerifyDominance(f *Func) error {
	index, dom := refDominators(f)
	dominates := func(a, b *Block) bool {
		ia, ok := index[a]
		if !ok {
			return false
		}
		ib, ok := index[b]
		if !ok {
			return false
		}
		return dom[ib].has(ia)
	}
	pos := make(map[*Instr]int)
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			pos[in] = i
		}
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			for _, a := range in.Args {
				def, ok := a.(*Instr)
				if !ok {
					continue
				}
				db := def.Block()
				switch {
				case db == b:
					if pos[def] >= i {
						return &domError{f, in, def, "use precedes definition in the same block"}
					}
				case !dominates(db, b):
					return &domError{f, in, def, "definition does not dominate use"}
				}
			}
		}
	}
	return nil
}

func refDominators(fn *Func) (map[*Block]int, []bitset) {
	n := len(fn.Blocks)
	newBitset := func() bitset { return make(bitset, (n+63)/64) }
	index := make(map[*Block]int, n)
	for i, b := range fn.Blocks {
		index[b] = i
	}
	preds := make([][]int, n)
	for i, b := range fn.Blocks {
		if term := b.Terminator(); term != nil {
			for _, s := range term.Succs() {
				j := index[s]
				preds[j] = append(preds[j], i)
			}
		}
	}
	dom := make([]bitset, n)
	for i := range dom {
		dom[i] = newBitset()
		if i == 0 {
			dom[i].set(0)
		} else {
			dom[i].fill()
		}
	}
	for changed := true; changed; {
		changed = false
		for i := 1; i < n; i++ {
			nv := newBitset()
			nv.fill()
			if len(preds[i]) == 0 {
				continue
			}
			for _, p := range preds[i] {
				nv.intersectWith(dom[p])
			}
			nv.set(i)
			if dom[i].intersectWith(nv) {
				changed = true
			}
		}
	}
	return index, dom
}

// verifyBoth runs Verify and the oracle on m, fails t when their error
// texts differ, and returns Verify's error.
func verifyBoth(t *testing.T, m *Module) error {
	t.Helper()
	got, want := Verify(m), refVerify(m)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("Verify and the fresh per-function oracle disagree:\nVerify: %v\noracle: %v", got, want)
	}
	return got
}
