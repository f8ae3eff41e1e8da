package trace

import (
	"bufio"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"

	"hippocrates/internal/ir"
)

const pmtestSample = `PMTest v1 demo
REGISTER 0x100000000040 64 @pool
STORE 0x100000000040 8 @ update:3:a.pmc:12 < modify:1:a.pmc:20 < main:7
FLUSH clwb 0x100000000040 @ update:4:a.pmc:13
NTSTORE 0x100000000080 8 @ main:9
FENCE sfence @ main:10
CHECK @ main:11
`

func TestParsePMTest(t *testing.T) {
	tr, err := ParsePMTestString(pmtestSample)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Program != "demo" {
		t.Errorf("program = %q", tr.Program)
	}
	if len(tr.Events) != 6 {
		t.Fatalf("events = %d, want 6", len(tr.Events))
	}
	wantKinds := []Kind{KindAlloc, KindStore, KindFlush, KindNTStore, KindFence, KindCheckpoint}
	for i, k := range wantKinds {
		if tr.Events[i].Kind != k {
			t.Errorf("event %d kind = %v, want %v", i, tr.Events[i].Kind, k)
		}
		if tr.Events[i].Seq != i {
			t.Errorf("event %d seq = %d", i, tr.Events[i].Seq)
		}
	}
	if tr.Events[0].Sym != "pool" || tr.Events[0].Size != 64 {
		t.Errorf("register event = %+v", tr.Events[0])
	}
	st := tr.Events[1]
	if st.Addr != 0x100000000040 || st.Size != 8 {
		t.Errorf("store event = %+v", st)
	}
	if len(st.Stack) != 3 || st.Stack[1].Func != "modify" || st.Stack[1].InstrID != 1 {
		t.Errorf("store stack = %+v", st.Stack)
	}
	if st.Stack[0].Loc != (ir.Loc{File: "a.pmc", Line: 12}) {
		t.Errorf("store loc = %v", st.Stack[0].Loc)
	}
	if st.Stack[2].Loc != (ir.Loc{}) {
		t.Errorf("frame without location parsed loc = %v", st.Stack[2].Loc)
	}
	if tr.Events[2].FlushK != ir.CLWB || tr.Events[4].FenceK != ir.SFENCE {
		t.Error("kinds lost")
	}
}

func TestPMTestRoundTrip(t *testing.T) {
	tr, err := ParsePMTestString(pmtestSample)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := tr.writePMTest(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ParsePMTestString(sb.String())
	if err != nil {
		t.Fatalf("reparse: %v\n%s", err, sb.String())
	}
	var sb2 strings.Builder
	if err := back.writePMTest(&sb2); err != nil {
		t.Fatal(err)
	}
	if sb.String() != sb2.String() {
		t.Errorf("pmtest round-trip mismatch:\n%s\n----\n%s", sb.String(), sb2.String())
	}
}

func TestPMTestEquivalentToNative(t *testing.T) {
	// The same events expressed in both dialects must load identically.
	tr := sampleTrace()
	var native strings.Builder
	if err := tr.Write(&native); err != nil {
		t.Fatal(err)
	}
	var pmtest strings.Builder
	if err := tr.writePMTest(&pmtest); err != nil {
		t.Fatal(err)
	}
	a, err := ParseString(native.String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParsePMTestString(pmtest.String())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Events) != len(b.Events) {
		t.Fatalf("event counts differ: %d vs %d", len(a.Events), len(b.Events))
	}
	for i := range a.Events {
		ea, eb := a.Events[i], b.Events[i]
		if ea.Kind != eb.Kind || ea.Addr != eb.Addr || ea.Size != eb.Size ||
			len(ea.Stack) != len(eb.Stack) {
			t.Errorf("event %d differs: %+v vs %+v", i, ea, eb)
		}
	}
}

func TestParsePMTestErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"empty", ""},
		{"no header", "STORE 0x10 8"},
		{"bad record", "PMTest v1 x\nEXPLODE"},
		{"bad addr", "PMTest v1 x\nSTORE zz 8"},
		{"bad size", "PMTest v1 x\nSTORE 0x10 huge"},
		{"bad flush", "PMTest v1 x\nFLUSH clzap 0x10"},
		{"bad fence", "PMTest v1 x\nFENCE nofence"},
		{"bad frame", "PMTest v1 x\nCHECK @ justfunc"},
		{"bad frame id", "PMTest v1 x\nCHECK @ f:x"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParsePMTestString(c.in); err == nil {
				t.Error("accepted malformed input")
			}
		})
	}
}

// TestParsersNeverPanic mutates valid traces in both dialects: parsers
// must error on garbage, never panic (trace files arrive from disk).
func TestParsersNeverPanic(t *testing.T) {
	tr := sampleTrace()
	var native, pmtest strings.Builder
	if err := tr.Write(&native); err != nil {
		t.Fatal(err)
	}
	if err := tr.writePMTest(&pmtest); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	mutate := func(s string) string {
		b := []byte(s)
		if len(b) == 0 {
			return s
		}
		switch rng.Intn(3) {
		case 0:
			b[rng.Intn(len(b))] = byte(rng.Intn(128))
		case 1:
			i := rng.Intn(len(b))
			b = append(b[:i], b[min(i+1+rng.Intn(8), len(b)):]...)
		default:
			i := rng.Intn(len(b))
			b = append(b[:i], append([]byte("@#%"), b[i:]...)...)
		}
		return string(b)
	}
	for i := 0; i < 2000; i++ {
		for _, base := range []string{native.String(), pmtest.String()} {
			src := base
			for k := 0; k <= rng.Intn(3); k++ {
				src = mutate(src)
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("trace parser panicked: %v\n----\n%s", r, src)
					}
				}()
				_, _ = ParseString(src)
				_, _ = ParsePMTestString(src)
			}()
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// writePMTest serializes the trace in the PMTest dialect, the inverse of
// ParsePMTest.
func (t *Trace) writePMTest(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "PMTest v1 %s\n", t.Program)
	for _, e := range t.Events {
		switch e.Kind {
		case KindStore:
			fmt.Fprintf(bw, "STORE 0x%x %d", e.Addr, e.Size)
		case KindNTStore:
			fmt.Fprintf(bw, "NTSTORE 0x%x %d", e.Addr, e.Size)
		case KindFlush:
			fmt.Fprintf(bw, "FLUSH %s 0x%x", e.FlushK, e.Addr)
		case KindFence:
			fmt.Fprintf(bw, "FENCE %s", e.FenceK)
		case KindCheckpoint:
			bw.WriteString("CHECK")
		case KindAlloc:
			fmt.Fprintf(bw, "REGISTER 0x%x %d", e.Addr, e.Size)
			if e.Sym != "" {
				fmt.Fprintf(bw, " @%s", e.Sym)
			}
		}
		if len(e.Stack) > 0 {
			bw.WriteString(" @ ")
			for i, f := range e.Stack {
				if i > 0 {
					bw.WriteString(" < ")
				}
				if f.Loc.IsZero() {
					fmt.Fprintf(bw, "%s:%d", f.Func, f.InstrID)
				} else {
					fmt.Fprintf(bw, "%s:%d:%s:%d", f.Func, f.InstrID, f.Loc.File, f.Loc.Line)
				}
			}
		}
		fmt.Fprintln(bw)
	}
	return bw.Flush()
}
