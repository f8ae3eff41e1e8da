package trace

import (
	"fmt"
	"strings"
	"testing"

	"hippocrates/internal/ir"
	"hippocrates/internal/pmem"
)

func sampleTrace() *Trace {
	t := &Trace{Program: "sample"}
	t.Append(&Event{
		Kind: KindStore, Addr: 0x100000000000, Size: 8,
		Stack: []Frame{
			{Func: "update", InstrID: 3, Loc: ir.Loc{File: "a.pmc", Line: 12}},
			{Func: "modify", InstrID: 1, Loc: ir.Loc{File: "a.pmc", Line: 20}},
			{Func: "main", InstrID: 7},
		},
	})
	t.Append(&Event{Kind: KindFlush, FlushK: ir.CLWB, Addr: 0x100000000000,
		Stack: []Frame{{Func: "update", InstrID: 4, Loc: ir.Loc{File: "a.pmc", Line: 13}}}})
	t.Append(&Event{Kind: KindNTStore, Addr: 0x100000000040, Size: 8,
		Stack: []Frame{{Func: "main", InstrID: 9}}})
	t.Append(&Event{Kind: KindFence, FenceK: ir.SFENCE,
		Stack: []Frame{{Func: "main", InstrID: 10}}})
	t.Append(&Event{Kind: KindCheckpoint,
		Stack: []Frame{{Func: "main", InstrID: 11}}})
	return t
}

func TestAppendAssignsSeq(t *testing.T) {
	tr := sampleTrace()
	for i, e := range tr.Events {
		if e.Seq != i {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	tr := sampleTrace()
	text := tr.String()
	back, err := ParseString(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if back.String() != text {
		t.Errorf("round-trip mismatch:\n%s\n----\n%s", text, back.String())
	}
	if back.Program != "sample" {
		t.Errorf("program = %q", back.Program)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("events = %d, want %d", len(back.Events), len(tr.Events))
	}
	e0 := back.Events[0]
	if e0.Kind != KindStore || e0.Addr != 0x100000000000 || e0.Size != 8 {
		t.Errorf("event 0 = %+v", e0)
	}
	if len(e0.Stack) != 3 || e0.Stack[1].Func != "modify" || e0.Stack[1].InstrID != 1 {
		t.Errorf("event 0 stack = %+v", e0.Stack)
	}
	if e0.Stack[0].Loc != (ir.Loc{File: "a.pmc", Line: 12}) {
		t.Errorf("event 0 loc = %v", e0.Stack[0].Loc)
	}
	if back.Events[1].FlushK != ir.CLWB {
		t.Errorf("flush kind = %v", back.Events[1].FlushK)
	}
	if back.Events[3].FenceK != ir.SFENCE {
		t.Errorf("fence kind = %v", back.Events[3].FenceK)
	}
}

func TestStores(t *testing.T) {
	tr := sampleTrace()
	st := tr.Stores()
	if len(st) != 2 {
		t.Fatalf("stores = %d, want 2", len(st))
	}
	if st[0].Kind != KindStore || st[1].Kind != KindNTStore {
		t.Errorf("store kinds = %v, %v", st[0].Kind, st[1].Kind)
	}
}

func TestSite(t *testing.T) {
	tr := sampleTrace()
	if s := tr.Events[0].Site(); s.Func != "update" || s.InstrID != 3 {
		t.Errorf("site = %+v", s)
	}
	empty := &Event{}
	if s := empty.Site(); s.Func != "" {
		t.Errorf("empty site = %+v", s)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no header", "#0 fence sfence"},
		{"bad seq", "pmtrace x\n#z store addr=0x0 size=8"},
		{"bad kind", "pmtrace x\n#0 explode"},
		{"bad flush kind", "pmtrace x\n#0 flush clzap addr=0x10"},
		{"bad fence kind", "pmtrace x\n#0 fence zfence"},
		{"bad frame", "pmtrace x\n#0 fence sfence | nofunc"},
		{"bad frame id", "pmtrace x\n#0 fence sfence | f@xy"},
		{"bad addr", "pmtrace x\n#0 store addr=0xzz size=8"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := ParseString(c.in); err == nil {
				t.Error("ParseString accepted malformed input")
			}
		})
	}
}

func TestFrameStringForms(t *testing.T) {
	f := Frame{Func: "f", InstrID: 2}
	if f.String() != "f@2" {
		t.Errorf("frame = %q", f.String())
	}
	f.Loc = ir.Loc{File: "x.pmc", Line: 9}
	if f.String() != "f@2(x.pmc:9)" {
		t.Errorf("frame = %q", f.String())
	}
	got, err := parseFrame("f@2(x.pmc:9)")
	if err != nil || got != f {
		t.Errorf("parseFrame = %+v, %v", got, err)
	}
}

func TestWriteToWriter(t *testing.T) {
	tr := sampleTrace()
	var sb strings.Builder
	if err := tr.Write(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sb.String(), "pmtrace sample\n") {
		t.Error("missing header")
	}
}

// TestKindCountsAllocFree guards the telemetry hot path: KindCounts is
// called once per interpreter run and must not allocate (it returns a
// dense array; it used to build a map per call).
func TestKindCountsAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race runtime")
	}
	tr := sampleTrace()
	var sink [NumKinds]int
	allocs := testing.AllocsPerRun(100, func() {
		sink = tr.KindCounts()
	})
	if allocs != 0 {
		t.Fatalf("KindCounts allocates %.1f objects per call, want 0", allocs)
	}
	if sink[int(KindStore)] == 0 {
		t.Fatal("sample trace lost its store events")
	}
}

// TestParsersRejectUnreplayableStores: a store the durability model
// cannot hold — no bytes, a negative or above-8 width, or bytes on two
// cache lines — and a negative thread id are parse errors naming the
// line, in both dialects, so a replayed trace never reaches the detector
// malformed.
func TestParsersRejectUnreplayableStores(t *testing.T) {
	cases := []struct {
		name, native, pmtest, want string
	}{
		{"zero size",
			"#1 store addr=0x100000000040 size=0",
			"STORE 0x100000000040 0",
			"store size 0 outside 1..8"},
		{"missing size",
			"#1 store addr=0x100000000040",
			"NTSTORE 0x100000000040 0",
			"store size 0 outside 1..8"},
		{"negative size",
			"#1 ntstore addr=0x100000000040 size=-3",
			"STORE 0x100000000040 -3",
			"store size -3 outside 1..8"},
		{"wider than 8",
			"#1 store addr=0x100000000040 size=16",
			"NTSTORE 0x100000000040 16",
			"store size 16 outside 1..8"},
		{"crosses a line",
			"#1 store addr=0x10000000007c size=8",
			"STORE 0x10000000007c 8",
			"store at 0x10000000007c size 8 crosses a 64-byte cache line"},
		{"wraps the address space",
			"#1 store addr=0xffffffffffffffff size=2",
			"STORE 0xffffffffffffffff 2",
			"store at 0xffffffffffffffff size 2 crosses a 64-byte cache line"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseString("pmtrace x\n#0 fence sfence\n" + c.native + "\n")
			if err == nil || !strings.Contains(err.Error(), "line 3: "+c.want) {
				t.Errorf("native: err = %v, want line 3: %s", err, c.want)
			}
			_, err = ParsePMTestString("PMTest v1 x\nFENCE sfence\n" + c.pmtest + "\n")
			if err == nil || !strings.Contains(err.Error(), "line 3: "+c.want) {
				t.Errorf("pmtest: err = %v, want line 3: %s", err, c.want)
			}
		})
	}
	for _, tid := range []string{"store addr=0x100000000040 size=8", "flush clwb addr=0x100000000040", "fence sfence", "checkpoint"} {
		if _, err := ParseString("pmtrace x\n#0 " + tid + " tid=-1\n"); err == nil || !strings.Contains(err.Error(), "line 2: negative thread id") {
			t.Errorf("native %q with tid=-1: err = %v", tid, err)
		}
		// A huge id would size the tracker's per-thread state by it.
		for _, big := range []int{pmem.MaxThreads, 2000000000} {
			in := fmt.Sprintf("pmtrace x\n#0 %s tid=%d\n", tid, big)
			want := fmt.Sprintf("line 2: thread id %d not below the %d-thread limit", big, pmem.MaxThreads)
			if _, err := ParseString(in); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("native %q with tid=%d: err = %v", tid, big, err)
			}
		}
		last := fmt.Sprintf("pmtrace x\n#0 %s tid=%d\n", tid, pmem.MaxThreads-1)
		if _, err := ParseString(last); err != nil {
			t.Errorf("native %q with the last thread id: %v", tid, err)
		}
	}
	// The boundaries stay accepted: 1 and 8 bytes, a store ending on the
	// line's last byte.
	ok := "pmtrace x\n#0 store addr=0x100000000040 size=1\n#1 store addr=0x100000000078 size=8\n#2 ntstore addr=0x10000000007e size=2 tid=1\n"
	if _, err := ParseString(ok); err != nil {
		t.Errorf("native boundary stores rejected: %v", err)
	}
	if _, err := ParsePMTestString("PMTest v1 x\nSTORE 0x100000000040 1\nNTSTORE 0x100000000078 8\n"); err != nil {
		t.Errorf("pmtest boundary stores rejected: %v", err)
	}
}
