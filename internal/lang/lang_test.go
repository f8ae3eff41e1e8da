package lang

import (
	"strings"
	"testing"

	"hippocrates/internal/interp"
	"hippocrates/internal/ir"
)

// compileRun compiles src and runs entry, returning (result, stdout).
func compileRun(t *testing.T, src, entry string, args ...uint64) (uint64, string) {
	t.Helper()
	m, err := Compile("test.pmc", src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	var out strings.Builder
	mach, err := interp.New(m, interp.Options{Stdout: &out})
	if err != nil {
		t.Fatal(err)
	}
	ret, err := mach.Run(entry, args...)
	if err != nil {
		t.Fatalf("run: %v\nmodule:\n%s", err, ir.Print(m))
	}
	return ret, out.String()
}

func TestArithmeticAndPrecedence(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	return 2 + 3 * 4 - 10 / 2 + (1 << 4) - 7 % 3;
}`, "main")
	if got != 2+12-5+16-1 {
		t.Errorf("main() = %d", got)
	}
}

func TestBitwiseAndShifts(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int a = 0xF0;
	int b = 0x0F;
	return (a | b) ^ (a & b) ^ (~0 & 0xFF) ^ (a >> 2) ^ (b << 2);
}`, "main")
	want := uint64((0xF0|0x0F)^(0xF0&0x0F)^0xFF) ^ (0xF0 >> 2) ^ (0x0F << 2)
	if got != want {
		t.Errorf("main() = %#x, want %#x", got, want)
	}
}

func TestVariablesAndCompoundAssign(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int x = 10;
	x += 5;
	x -= 2;
	x *= 3;
	x /= 2;
	x %= 11;
	x <<= 2;
	x >>= 1;
	x++;
	x--;
	x |= 8;
	x &= 0xE;
	x ^= 1;
	return x;
}`, "main")
	x := int64(10)
	x += 5
	x -= 2
	x *= 3
	x /= 2
	x %= 11
	x <<= 2
	x >>= 1
	x |= 8
	x &= 0xE
	x ^= 1
	if int64(got) != x {
		t.Errorf("main() = %d, want %d", got, x)
	}
}

func TestControlFlow(t *testing.T) {
	got, _ := compileRun(t, `
int collatzSteps(int n) {
	int steps = 0;
	while (n != 1) {
		if (n % 2 == 0) { n = n / 2; }
		else { n = 3 * n + 1; }
		steps++;
	}
	return steps;
}
int main() { return collatzSteps(27); }`, "main")
	if got != 111 {
		t.Errorf("collatz(27) = %d, want 111", got)
	}
}

func TestForLoopBreakContinue(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int sum = 0;
	for (int i = 0; i < 100; i++) {
		if (i % 3 == 0) { continue; }
		if (i > 50) { break; }
		sum += i;
	}
	return sum;
}`, "main")
	want := uint64(0)
	for i := 0; i < 100; i++ {
		if i%3 == 0 {
			continue
		}
		if i > 50 {
			break
		}
		want += uint64(i)
	}
	if got != want {
		t.Errorf("main() = %d, want %d", got, want)
	}
}

func TestShortCircuit(t *testing.T) {
	_, out := compileRun(t, `
int sideEffect(int v) { print_int(v); return v; }
int main() {
	if (sideEffect(0) != 0 && sideEffect(1) != 0) { print_int(100); }
	if (sideEffect(2) != 0 || sideEffect(3) != 0) { print_int(200); }
	return 0;
}`, "main")
	if out != "0\n2\n200\n" {
		t.Errorf("stdout = %q (short-circuit broken)", out)
	}
}

func TestRecursion(t *testing.T) {
	got, _ := compileRun(t, `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int main() { return fib(20); }`, "main")
	if got != 6765 {
		t.Errorf("fib(20) = %d", got)
	}
}

func TestPointersAndAddressOf(t *testing.T) {
	got, _ := compileRun(t, `
void bump(int *p, int by) { *p = *p + by; }
int main() {
	int x = 5;
	int *p = &x;
	bump(p, 10);
	bump(&x, 1);
	return *p + x;
}`, "main")
	if got != 32 {
		t.Errorf("main() = %d, want 32", got)
	}
}

func TestArraysAndPointerArithmetic(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int a[10];
	for (int i = 0; i < 10; i++) { a[i] = i * i; }
	int *p = a;
	int *q = p + 7;
	int diff = q - p;
	return *q + a[3] + diff + *(a + 2);
}`, "main")
	if got != 49+9+7+4 {
		t.Errorf("main() = %d", got)
	}
}

func TestStructsAndMembers(t *testing.T) {
	got, _ := compileRun(t, `
struct point { int x; int y; };
struct rect { point tl; point br; };
int area(rect *r) {
	return (r->br.x - r->tl.x) * (r->br.y - r->tl.y);
}
int main() {
	rect r;
	r.tl.x = 1; r.tl.y = 2;
	r.br.x = 11; r.br.y = 22;
	return area(&r);
}`, "main")
	if got != 200 {
		t.Errorf("area = %d, want 200", got)
	}
}

func TestLinkedListOnHeap(t *testing.T) {
	got, _ := compileRun(t, `
struct node { int val; node *next; };
int main() {
	node *head = null;
	for (int i = 1; i <= 5; i++) {
		node *n = (node*) malloc(sizeof(node));
		n->val = i;
		n->next = head;
		head = n;
	}
	int sum = 0;
	for (node *it = head; it != null; it = it->next) {
		sum = sum * 10 + it->val;
	}
	return sum;
}`, "main")
	if got != 54321 {
		t.Errorf("list traversal = %d, want 54321", got)
	}
}

func TestByteOpsAndCasts(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	byte b = 200;
	byte c = 100;
	byte sum = b + c;       // wraps at 8 bits: 44
	int wide = (int) sum;
	int narrowed = (byte) 0x1FF;  // 255
	bool t = (bool) 5;
	return wide + narrowed + (int) t;
}`, "main")
	if got != 44+255+1 {
		t.Errorf("main() = %d", got)
	}
}

func TestGlobalsAndInitializers(t *testing.T) {
	got, out := compileRun(t, `
int counter = 41;
byte tag = 7;
byte msg[16] = "hi pmc";
int main() {
	counter++;
	print_str(msg);
	return counter + (int) tag;
}`, "main")
	if got != 49 {
		t.Errorf("main() = %d", got)
	}
	if out != "hi pmc\n" {
		t.Errorf("stdout = %q", out)
	}
}

func TestStringLiteralsInterned(t *testing.T) {
	m, err := Compile("test.pmc", `
void f() { print_str("same"); print_str("same"); print_str("different"); }
`)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, g := range m.Globals {
		if strings.HasPrefix(g.Name, "str") {
			count++
		}
	}
	if count != 2 {
		t.Errorf("interned strings = %d, want 2", count)
	}
}

func TestPersistenceIntrinsics(t *testing.T) {
	m, err := Compile("test.pmc", `
pm int cell;
void persistAll() {
	cell = 42;
	clwb(&cell);
	sfence();
	clflushopt(&cell);
	mfence();
	clflush(&cell);
	ntstore(&cell, 43);
	sfence();
}`)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(m)
	for _, want := range []string{"flush clwb", "flush clflushopt", "flush clflush", "fence sfence", "fence mfence", "ntstore"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in lowered IR:\n%s", want, text)
		}
	}
	mach, err := interp.New(m, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("persistAll"); err != nil {
		t.Fatal(err)
	}
	if n := mach.NumViolations(); n != 0 {
		t.Errorf("violations = %d", n)
	}
}

func TestPMGlobalAndCheckpoint(t *testing.T) {
	m, err := Compile("test.pmc", `
pm int cell;
void buggy() {
	cell = 1;
	pm_checkpoint();
}`)
	if err != nil {
		t.Fatal(err)
	}
	mach, err := interp.New(m, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mach.Run("buggy"); err != nil {
		t.Fatal(err)
	}
	if mach.NumViolations() == 0 {
		t.Error("expected a durability violation")
	}
}

func TestMemcpyMemsetBuiltins(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	byte *a = malloc(64);
	byte *b = malloc(64);
	memset(a, 7, 64);
	memcpy(b, a, 64);
	int sum = 0;
	for (int i = 0; i < 64; i++) { sum += (int) b[i]; }
	return sum;
}`, "main")
	if got != 7*64 {
		t.Errorf("main() = %d", got)
	}
}

func TestStructArraysInStructs(t *testing.T) {
	got, _ := compileRun(t, `
struct bucket { int keys[4]; int n; };
int main() {
	bucket b;
	b.n = 0;
	for (int i = 0; i < 4; i++) {
		b.keys[i] = 10 * i;
		b.n++;
	}
	return b.keys[3] + b.n;
}`, "main")
	if got != 34 {
		t.Errorf("main() = %d", got)
	}
}

func TestSizeof(t *testing.T) {
	got, _ := compileRun(t, `
struct pair { int a; byte b; };
int main() {
	return sizeof(int) + sizeof(byte) + sizeof(bool) + sizeof(pair) + sizeof(int*);
}`, "main")
	if got != 8+1+1+16+8 {
		t.Errorf("main() = %d", got)
	}
}

func TestCharLiteralsAndStrings(t *testing.T) {
	got, _ := compileRun(t, `
int strlen_(byte *s) {
	int n = 0;
	while (s[n] != 0) { n++; }
	return n;
}
int main() {
	byte *s = "hello\n";
	if (s[0] != 'h') { return 1; }
	if (s[5] != '\n') { return 2; }
	return strlen_(s);
}`, "main")
	if got != 6 {
		t.Errorf("main() = %d, want 6", got)
	}
}

func TestNegativeNumbersAndUnary(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int a = -5;
	int b = ~a;      // 4
	bool c = !(a == -5); // false
	return -a + b + (int) c;
}`, "main")
	if got != 9 {
		t.Errorf("main() = %d, want 9", got)
	}
}

func TestDeclInLoopDoesNotGrowStack(t *testing.T) {
	// Locals declared in loop bodies must reuse one slot (alloca hoisted
	// to the entry block), or deep loops would overflow the stack.
	_, _ = compileRun(t, `
int main() {
	int total = 0;
	for (int i = 0; i < 100000; i++) {
		int tmp = i * 2;
		total += tmp;
	}
	return total % 1000;
}`, "main")
}

func TestCompileErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"undefined variable", `int main() { return x; }`, "undefined variable"},
		{"undefined function", `int main() { return f(); }`, "undefined function"},
		{"arg count", `int f(int a) { return a; } int main() { return f(); }`, "argument"},
		{"type mismatch assign", `int main() { int *p = 5; return 0; }`, "cannot use"},
		{"void variable", `int main() { void v; return 0; }`, "void type"},
		{"break outside loop", `int main() { break; return 0; }`, "break outside"},
		{"continue outside loop", `int main() { continue; return 0; }`, "continue outside"},
		{"duplicate local", `int main() { int a; int a; return 0; }`, "duplicate variable"},
		{"duplicate function", `int f() { return 0; } int f() { return 0; }`, "duplicate function"},
		{"redefine builtin", `int malloc(int n) { return n; }`, "duplicate function"},
		{"redefine intrinsic", `void sfence() { }`, "intrinsic"},
		{"unknown field", `struct s { int a; }; int main() { s v; return v.b; }`, "no field"},
		{"dot on non-struct", `int main() { int a; return a.b; }`, "non-struct"},
		{"deref int", `int main() { int a; return *a; }`, "dereference"},
		{"void return value", `void f() { return 5; }`, "void function returns"},
		{"missing return value", `int f() { return; }`, "missing return value"},
		{"not assignable", `int main() { 5 = 6; return 0; }`, "not assignable"},
		{"struct by value param", `struct s { int a; }; void f(s v) { }`, "non-scalar"},
		{"struct self-containment", `struct s { s inner; };`, "contains itself"},
		{"bad compare", `struct s { int a; }; int main() { s a; s b; if (a == b) {} return 0; }`, "not usable directly"},
		{"pm function", `pm int f() { return 0; }`, "cannot be 'pm'"},
		{"string init non-array", `int g = "hello"; int main() { return 0; }`, "byte array"},
		{"string too long", `byte g[3] = "hello"; int main() { return 0; }`, "longer than array"},
		{"parse: missing semicolon", `int main() { return 0 }`, "expected"},
		{"parse: bad token", "int main() { return $; }", "unexpected character"},
		{"parse: unterminated block", `int main() { return 0;`, "unterminated"},
		{"parse: keyword as name", `int if() { return 0; }`, "keyword"},
		{"lex: unterminated string", `byte *s = "abc`, "unterminated string"},
		{"lex: bad escape", `byte *s = "a\qb";`, "unknown escape"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Compile("test.pmc", c.src)
			if err == nil {
				t.Fatal("compile succeeded, want error")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Errorf("error = %q, want mention of %q", err, c.want)
			}
		})
	}
}

func TestSourceLocationsOnInstructions(t *testing.T) {
	m, err := Compile("loc.pmc", `pm int cell;
void f() {
	cell = 1;
	clwb(&cell);
	sfence();
}`)
	if err != nil {
		t.Fatal(err)
	}
	var storeLoc ir.Loc
	for _, b := range m.Func("f").Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore && in.StoreTy == ir.I64 {
				storeLoc = in.Loc
			}
		}
	}
	if storeLoc.File != "loc.pmc" || storeLoc.Line != 3 {
		t.Errorf("store loc = %v, want loc.pmc:3", storeLoc)
	}
}

func TestCommentsAndHexLiterals(t *testing.T) {
	got, _ := compileRun(t, `
// line comment
/* block
   comment */
int main() {
	int a = 0xFF; // trailing
	/* inline */ int b = 0x10;
	return a + b;
}`, "main")
	if got != 0x10F {
		t.Errorf("main() = %#x", got)
	}
}

func TestLoweredModuleRoundTrips(t *testing.T) {
	m, err := Compile("rt.pmc", `
struct node { int key; node *next; };
pm byte pool[256];
int g = 3;
int touch(node *n, int k) {
	n->key = k;
	clwb(&n->key);
	sfence();
	return n->key;
}
int main() {
	node *n = (node*) pm_alloc(sizeof(node));
	return touch(n, g);
}`)
	if err != nil {
		t.Fatal(err)
	}
	text := ir.Print(m)
	back, err := ir.ParseModule(text)
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, text)
	}
	if ir.Print(back) != text {
		t.Error("lowered module does not round-trip through text")
	}
}

func TestConstGlobalInitializers(t *testing.T) {
	got, _ := compileRun(t, `
int a = -5;
int b = ~0;
int c = sizeof(int) * 4 + 2;
int d = 100 / 4 - 1;
bool e = true;
byte f = 200;
int main() {
	return a + b + c + d + (int) e + (int) f;
}`, "main")
	want := int64(-5) + -1 + 34 + 24 + 1 + 200
	if int64(got) != want {
		t.Errorf("main() = %d, want %d", int64(got), want)
	}
}

func TestConstInitializerErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"div by zero", `int g = 1 / 0; int main() { return 0; }`, "division by zero"},
		{"non-const call", `int g = f(); int f() { return 1; } int main() { return 0; }`, "constant"},
		{"non-const op", `int g = 1 && 2; int main() { return 0; }`, "not constant"},
		{"struct init", `struct s { int a; }; s g = 5; int main() { return 0; }`, "integer global"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile("t.pmc", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestTruthinessForms(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int n = 3;
	byte b = 1;
	int *p = &n;
	int *q = null;
	int hits = 0;
	if (n) { hits++; }
	if (b) { hits++; }
	if (p) { hits++; }
	if (q) { hits += 100; }
	if (!q) { hits++; }
	while (n) { n--; hits++; }
	return hits;
}`, "main")
	if got != 4+3 {
		t.Errorf("main() = %d, want 7", got)
	}
}

func TestCastMatrix(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	bool t1 = (bool) 7;        // true
	int i1 = (int) t1;         // 1
	byte b1 = (byte) 300;      // 44
	int i2 = (int) b1;         // 44
	int *p = (int*) malloc(8);
	*p = 9;
	byte *bp = (byte*) p;      // ptr-ptr cast
	int *p2 = (int*) bp;
	int i3 = 0;
	if ((int) p2 == (int) p) { i3 = 1; }
	return i1 + i2 + *p2 + i3;
}`, "main")
	if got != 1+44+9+1 {
		t.Errorf("main() = %d, want 55", got)
	}
}

func TestPointerComparisonsAndDiff(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int a[8];
	int *p = &a[2];
	int *q = &a[6];
	int hits = 0;
	if (p != q) { hits++; }
	if (p == &a[2]) { hits++; }
	int d = q - p;
	return hits * 10 + d;
}`, "main")
	if got != 24 {
		t.Errorf("main() = %d, want 24", got)
	}
}

func TestForLoopVariants(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int sum = 0;
	int i = 0;
	for (; i < 4; i++) { sum += i; }      // no init
	for (int j = 0; ; j++) {              // no cond
		if (j == 3) { break; }
		sum += 10;
	}
	for (int k = 8; k > 0; ) { k /= 2; sum += 1; } // no post
	return sum;
}`, "main")
	if got != 6+30+4 {
		t.Errorf("main() = %d, want 40", got)
	}
}

func TestMixedByteIntArithmetic(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	byte b = 250;
	int i = 10;
	int wide = b + i;   // byte promoted: 260
	byte narrow = b + (byte) i; // wraps: 4
	return wide + (int) narrow;
}`, "main")
	if got != 260+4 {
		t.Errorf("main() = %d, want 264", got)
	}
}

func TestVoidCallAsValueRejected(t *testing.T) {
	_, err := Compile("t.pmc", `
void f() { }
int main() { return f(); }`)
	if err == nil || !strings.Contains(err.Error(), "void") {
		t.Errorf("err = %v, want void misuse", err)
	}
	_, err = Compile("t.pmc", `int main() { int x = sfence(); return x; }`)
	if err == nil {
		t.Error("intrinsic used as value must be rejected")
	}
}

func TestIndexThroughPointerChain(t *testing.T) {
	got, _ := compileRun(t, `
struct row { int cells[4]; };
int main() {
	row *r = (row*) malloc(sizeof(row));
	for (int i = 0; i < 4; i++) { r->cells[i] = i * i; }
	int *flat = (int*) r;
	return r->cells[3] + flat[2];
}`, "main")
	if got != 9+4 {
		t.Errorf("main() = %d, want 13", got)
	}
}

func TestSwitchStatement(t *testing.T) {
	got, _ := compileRun(t, `
int classify(int n) {
	switch (n % 10) {
	case 0:
		return 100;
	case 1, 2, 3:
		return 200;
	case 4:
		break;           // exits the switch
	default:
		return 400;
	}
	return 300;          // reached via 'break' on case 4
}
int main() {
	return classify(20) + classify(12) + classify(14) + classify(17);
}`, "main")
	if got != 100+200+300+400 {
		t.Errorf("main() = %d, want 1000", got)
	}
}

func TestSwitchNoFallthrough(t *testing.T) {
	_, out := compileRun(t, `
int main() {
	for (int i = 0; i < 3; i++) {
		switch (i) {
		case 0:
			print_int(10);
		case 1:
			print_int(11);
		default:
			print_int(12);
		}
	}
	return 0;
}`, "main")
	if out != "10\n11\n12\n" {
		t.Errorf("stdout = %q (fallthrough leaked?)", out)
	}
}

func TestSwitchInsideLoop(t *testing.T) {
	got, _ := compileRun(t, `
int main() {
	int evens = 0;
	int odds = 0;
	for (int i = 0; i < 10; i++) {
		switch (i % 2) {
		case 0:
			evens++;
		default:
			odds++;
		}
	}
	// 'continue' still binds to the loop inside a switch body.
	int skipped = 0;
	for (int i = 0; i < 6; i++) {
		switch (i) {
		case 2, 3:
			continue;
		default:
		}
		skipped++;
	}
	return evens * 100 + odds * 10 + skipped;
}`, "main")
	if got != 5*100+5*10+4 {
		t.Errorf("main() = %d, want 554", got)
	}
}

func TestSwitchErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"duplicate default", `int main() { switch (1) { default: default: } return 0; }`, "duplicate default"},
		{"non-integer scrutinee", `int main() { int *p = null; switch (p) { default: } return 0; }`, "integer"},
		{"non-integer label", `int main() { int *p = null; switch (1) { case p: } return 0; }`, "integer"},
		{"stray token", `int main() { switch (1) { return 0; } }`, "expected 'case'"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile("t.pmc", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestConstDeclarations(t *testing.T) {
	got, _ := compileRun(t, `
const CAP = 16;
const DOUBLE = CAP * 2;
const MASK = ~0 & 255;
int main() {
	int total = 0;
	for (int i = 0; i < CAP; i++) { total++; }
	return total + DOUBLE + MASK;
}`, "main")
	if got != 16+32+255 {
		t.Errorf("main() = %d, want 303", got)
	}
}

func TestConstErrors(t *testing.T) {
	cases := []struct{ name, src, want string }{
		{"duplicate", `const A = 1; const A = 2; int main() { return 0; }`, "duplicate constant"},
		{"non-const init", `int f() { return 1; } const A = f(); int main() { return 0; }`, "constant"},
		{"assignment", `const A = 1; int main() { A = 2; return 0; }`, "not assignable"},
		{"undefined in const", `const A = B; int main() { return 0; }`, "not a constant"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := Compile("t.pmc", c.src); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("err = %v, want %q", err, c.want)
			}
		})
	}
}

func TestConstShadowedByLocal(t *testing.T) {
	got, _ := compileRun(t, `
const N = 100;
int main() {
	int N = 5;
	return N;
}`, "main")
	if got != 5 {
		t.Errorf("main() = %d, want local shadowing (5)", got)
	}
}
