package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"hippocrates/internal/ir"
)

// This file implements the PMTest-style input adapter. The paper's tool
// accepts traces from more than one bug finder (§5.1: "it currently
// supports pmemcheck and PMTest; we found it easy to port PMTest to
// provide the same information"), so the trace package reads a second,
// PMTest-shaped log format in addition to its native pmemcheck-style form.
// The dialect mirrors PMTest's ordered operation records:
//
//	PMTest v1 <program>
//	REGISTER 0x<addr> <size> [@sym]               ; persistent region
//	STORE 0x<addr> <size> @ f:3:file:9 < main:7
//	NTSTORE 0x<addr> <size> @ ...
//	FLUSH clwb|clflushopt|clflush 0x<addr> @ ...
//	FENCE sfence|mfence @ ...
//	CHECK @ ...                                   ; durability point
//
// Stacks are innermost-first, frames separated by " < ", each frame
// "func:instrID" optionally suffixed ":file:line".

// ParsePMTest reads a PMTest-style log into a Trace.
func ParsePMTest(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, fmt.Errorf("pmtest: empty input")
	}
	header := strings.Fields(sc.Text())
	if len(header) < 2 || header[0] != "PMTest" || header[1] != "v1" {
		return nil, fmt.Errorf("pmtest: missing 'PMTest v1' header")
	}
	t := &Trace{}
	if len(header) > 2 {
		t.Program = header[2]
	}
	ln := 1
	for sc.Scan() {
		ln++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		e, err := parsePMTestLine(line)
		if err == nil {
			err = e.validate()
		}
		if err != nil {
			return nil, fmt.Errorf("pmtest: line %d: %w", ln, err)
		}
		t.Append(e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pmtest: %w", err)
	}
	return t, nil
}

// ParsePMTestString parses a PMTest-style log from a string.
func ParsePMTestString(s string) (*Trace, error) { return ParsePMTest(strings.NewReader(s)) }

func parsePMTestLine(line string) (*Event, error) {
	head, stackStr, hasStack := strings.Cut(line, " @ ")
	fields := strings.Fields(head)
	if len(fields) == 0 {
		return nil, fmt.Errorf("empty record")
	}
	e := &Event{}
	switch fields[0] {
	case "STORE", "NTSTORE":
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed %s record", fields[0])
		}
		addr, err := parseHexAddr(fields[1])
		if err != nil {
			return nil, err
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("malformed size %q", fields[2])
		}
		e.Kind, e.Addr, e.Size = KindStore, addr, size
		if fields[0] == "NTSTORE" {
			e.Kind = KindNTStore
		}
	case "FLUSH":
		if len(fields) != 3 {
			return nil, fmt.Errorf("malformed FLUSH record")
		}
		switch fields[1] {
		case "clwb":
			e.FlushK = ir.CLWB
		case "clflushopt":
			e.FlushK = ir.CLFLUSHOPT
		case "clflush":
			e.FlushK = ir.CLFLUSH
		default:
			return nil, fmt.Errorf("unknown flush kind %q", fields[1])
		}
		addr, err := parseHexAddr(fields[2])
		if err != nil {
			return nil, err
		}
		e.Kind, e.Addr = KindFlush, addr
	case "FENCE":
		if len(fields) != 2 {
			return nil, fmt.Errorf("malformed FENCE record")
		}
		switch fields[1] {
		case "sfence":
			e.FenceK = ir.SFENCE
		case "mfence":
			e.FenceK = ir.MFENCE
		default:
			return nil, fmt.Errorf("unknown fence kind %q", fields[1])
		}
		e.Kind = KindFence
	case "CHECK":
		e.Kind = KindCheckpoint
	case "REGISTER":
		if len(fields) < 3 {
			return nil, fmt.Errorf("malformed REGISTER record")
		}
		addr, err := parseHexAddr(fields[1])
		if err != nil {
			return nil, err
		}
		size, err := strconv.Atoi(fields[2])
		if err != nil {
			return nil, fmt.Errorf("malformed size %q", fields[2])
		}
		e.Kind, e.Addr, e.Size = KindAlloc, addr, size
		if len(fields) > 3 && strings.HasPrefix(fields[3], "@") {
			e.Sym = fields[3][1:]
		}
	default:
		return nil, fmt.Errorf("unknown record %q", fields[0])
	}
	if hasStack {
		for _, fs := range strings.Split(stackStr, " < ") {
			f, err := parsePMTestFrame(strings.TrimSpace(fs))
			if err != nil {
				return nil, err
			}
			e.Stack = append(e.Stack, f)
		}
	}
	return e, nil
}

func parseHexAddr(s string) (uint64, error) {
	if !strings.HasPrefix(s, "0x") {
		return 0, fmt.Errorf("malformed address %q", s)
	}
	v, err := strconv.ParseUint(s[2:], 16, 64)
	if err != nil {
		return 0, fmt.Errorf("malformed address %q", s)
	}
	return v, nil
}

// parsePMTestFrame parses "func:3" or "func:3:file:9".
func parsePMTestFrame(s string) (Frame, error) {
	parts := strings.Split(s, ":")
	var f Frame
	switch len(parts) {
	case 2:
	case 4:
		n, err := strconv.Atoi(parts[3])
		if err != nil {
			return f, fmt.Errorf("malformed frame line in %q", s)
		}
		f.Loc = ir.Loc{File: parts[2], Line: n}
	default:
		return f, fmt.Errorf("malformed frame %q", s)
	}
	id, err := strconv.Atoi(parts[1])
	if err != nil {
		return f, fmt.Errorf("malformed frame id in %q", s)
	}
	f.Func = parts[0]
	f.InstrID = id
	return f, nil
}
