package static_test

import (
	"fmt"
	"strings"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/static"
)

// linesModule holds one function per resolver case; each names the
// pointers the cases resolve.
func linesModule(t *testing.T) *ir.Module {
	t.Helper()
	var deep strings.Builder
	prev := "@g"
	for i := 1; i <= 32; i++ {
		fmt.Fprintf(&deep, "  %%d%d = ptradd ptr %s, i64 0, 8, 0\n", i, prev)
		prev = fmt.Sprintf("%%d%d", i)
	}
	src := `module lines

pm global @g: [64 x i64]
global @h: [8 x i64]

declare @pm_alloc(%a0: i64) -> ptr
declare @pm_root(%a0: i64) -> ptr
declare @malloc(%a0: i64) -> ptr
declare @print_str(%a0: ptr) -> void

func @chains(%i: i64) -> void {
entry:
  %edge = ptradd ptr @g, i64 7, 8, 4
  %a = ptradd ptr @g, i64 3, 8, 0
  %b = ptradd ptr %a, i64 5, 16, 8
  %c = ptradd ptr %b, i64 2, 8, 16
  %var = ptradd ptr @g, i64 %i, 8, 0
  ret void
}

func @roots() -> void {
entry:
  %m = call @pm_alloc(i64 256)
  %m1 = ptradd ptr %m, i64 1, 64, 0
  %r = call @pm_root(i64 256)
  %r2 = ptradd ptr %r, i64 2, 64, 8
  %v = call @malloc(i64 256)
  %v1 = ptradd ptr %v, i64 1, 64, 0
  ret void
}

func @slots() -> void {
entry:
  %s = alloca ptr
  %out = alloca ptr
  %esc = alloca ptr
  %p = ptradd ptr @g, i64 9, 8, 0
  store ptr %p, ptr %s
  %in = load ptr, ptr %s
  store ptr %p, ptr %out
  store ptr %p, ptr %esc
  call @print_str(ptr %esc)
  %escl = load ptr, ptr %esc
  jmp ^next
next:
  %outl = load ptr, ptr %out
  ret void
}

func @deep() -> void {
entry:
` + deep.String() + `  ret void
}
`
	mod, err := ir.ParseModule(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := ir.Verify(mod); err != nil {
		t.Fatal(err)
	}
	return mod
}

// valueNamed finds @global or %name in fn.
func valueNamed(t *testing.T, mod *ir.Module, fn, name string) ir.Value {
	t.Helper()
	if strings.HasPrefix(name, "@") {
		return mod.Global(name[1:])
	}
	for _, b := range mod.Func(fn).Blocks {
		for _, in := range b.Instrs {
			if in.Name == name[1:] {
				return in
			}
		}
	}
	t.Fatalf("no value %s in @%s", name, fn)
	return nil
}

// TestLineResolver pins each step of the one "same cache line" walk the
// static analysis, the fixer's phase-2 reduction and optimize's flush
// coalescing share. root is "" for a pointer the resolver must reject.
func TestLineResolver(t *testing.T) {
	mod := linesModule(t)
	cases := []struct {
		name     string
		fn, ptr  string
		size     int64
		root     string
		wantLine int64
	}{
		{"pm global", "chains", "@g", 8, "@g", 0},
		{"non-PM global", "chains", "@h", 8, "", 0},
		{"store inside a line", "chains", "%edge", 4, "@g", 0},
		{"store crossing a line", "chains", "%edge", 8, "", 0},
		{"ptradd scale and displacement", "chains", "%b", 8, "@g", 1},
		{"ptradd chain", "chains", "%c", 8, "@g", 2},
		{"non-constant index", "chains", "%var", 8, "", 0},
		{"pm_alloc root", "roots", "%m1", 8, "%m", 1},
		{"pm_root root", "roots", "%r2", 8, "%r", 2},
		{"other callee", "roots", "%v1", 8, "", 0},
		{"slot defined in block", "slots", "%in", 8, "@g", 1},
		{"slot defined outside block", "slots", "%outl", 8, "", 0},
		{"escaping slot", "slots", "%escl", 8, "", 0},
		{"31 ptradds within the depth cap", "deep", "%d31", 8, "@g", 0},
		{"32 ptradds past the depth cap", "deep", "%d32", 8, "", 0},
	}
	var lines static.LineResolver
	for _, tc := range cases {
		root, line, ok := lines.Line(valueNamed(t, mod, tc.fn, tc.ptr), tc.size)
		if tc.root == "" {
			if ok {
				t.Errorf("%s: resolved %s to %s line %d, want no line", tc.name, tc.ptr, root.OperandString(), line)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: %s did not resolve, want %s line %d", tc.name, tc.ptr, tc.root, tc.wantLine)
			continue
		}
		if got := root.OperandString(); got != tc.root || line != tc.wantLine {
			t.Errorf("%s: %s resolved to %s line %d, want %s line %d", tc.name, tc.ptr, got, line, tc.root, tc.wantLine)
		}
	}
}
