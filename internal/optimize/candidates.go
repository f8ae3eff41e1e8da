package optimize

import (
	"sort"

	"hippocrates/internal/ir"
	"hippocrates/internal/static"
	"hippocrates/internal/trace"
)

// candidate is one proposed edit before its harmlessness proof.
type candidate struct {
	kind    EditKind
	in      *ir.Instr // the instruction to delete
	fn      *ir.Func
	partner *ir.Instr // coalesce/sink: the surviving instruction
	origin  string    // "static-lint", "trace-evidence", "scan"
}

// gather proposes candidate edits from three sources, in a fixed order:
// static lints (a machine-checked local redundancy argument), dynamic
// trace evidence (a flush site that never transitioned a store, or a
// fence site that never drained one, across the whole workload), and
// structural scans (two flushes of one provably-same cache line, or two
// fences, with no barrier between them). Every source is a heuristic —
// the proof in Optimize is the gate — but each instruction is claimed
// by at most one candidate so edits compose without aliasing.
func gather(mod *ir.Module, base *progSig) []*candidate {
	var out []*candidate
	claimed := make(map[*ir.Instr]bool)
	add := func(c *candidate) {
		if c.in == nil || claimed[c.in] {
			return
		}
		if c.partner != nil && claimed[c.partner] {
			return
		}
		claimed[c.in] = true
		out = append(out, c)
	}

	for _, l := range base.lints {
		fn := mod.Func(l.Site.Func)
		if fn == nil || fn.IsDecl() {
			continue
		}
		in := fn.InstrByID(l.Site.InstrID)
		if in == nil {
			continue
		}
		switch {
		case l.Kind == static.LintRedundantFence && in.Op == ir.OpFence:
			add(&candidate{kind: EditDeleteFence, in: in, fn: fn, origin: "static-lint"})
		case in.Op == ir.OpFlush:
			// LintRedundantFlush and LintFlushAfterNT both delete the flush.
			add(&candidate{kind: EditDeleteFlush, in: in, fn: fn, origin: "static-lint"})
		}
	}

	for _, ev := range traceEvidence(mod, base) {
		kind := EditDeleteFlush
		if ev.in.Op == ir.OpFence {
			kind = EditDeleteFence
		}
		add(&candidate{kind: kind, in: ev.in, fn: ev.fn, origin: "trace-evidence"})
	}

	var lines static.LineResolver
	for _, fn := range mod.Funcs {
		if fn.IsDecl() {
			continue
		}
		for _, b := range fn.Blocks {
			scanCoalesce(fn, b, &lines, add)
			scanSink(fn, b, add)
		}
	}
	return out
}

// scanCoalesce finds pairs of weakly-ordered flushes of the same
// provably-resolved cache line with no fence, call, or intervening
// barrier between them: the earlier flush's stores are still pending at
// the later flush (nothing can have drained without a fence), so the
// later flush covers both and the earlier one can go.
func scanCoalesce(fn *ir.Func, b *ir.Block, lines *static.LineResolver, add func(*candidate)) {
	type lineKey struct {
		root ir.Value
		line int64
	}
	last := make(map[lineKey]*ir.Instr)
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpFlush:
			if in.FlushK.Ordered() {
				// CLFLUSH commits immediately; deleting one changes
				// commit timing, so it never participates.
				continue
			}
			root, line, ok := lines.Line(in.Args[0], 1)
			if !ok {
				continue
			}
			k := lineKey{root, line}
			if prev := last[k]; prev != nil {
				add(&candidate{kind: EditCoalesceFlush, in: prev, fn: fn, partner: in, origin: "scan"})
			}
			last[k] = in
		case ir.OpFence, ir.OpCall:
			// A fence drains; a call may fence or flush. Both end every
			// open pair.
			last = make(map[lineKey]*ir.Instr)
		}
	}
}

// scanSink finds a fence whose drain can defer to a later covering
// fence: either the next fence in the same block with no store, flush,
// or call between them, or — when the fence is still open at the end of
// a block that jumps unconditionally — a fence at the head of the
// successor (the join-point shape: a branch arm fences early, the join
// fences again for the other arms). Nothing observes durability in the
// window, so the drain moves to the later fence.
func scanSink(fn *ir.Func, b *ir.Block, add func(*candidate)) {
	var open *ir.Instr
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpFence:
			if open != nil {
				add(&candidate{kind: EditSinkFence, in: open, fn: fn, partner: in, origin: "scan"})
			}
			open = in
		case ir.OpStore, ir.OpNTStore, ir.OpFlush, ir.OpCall:
			open = nil
		case ir.OpJmp:
			if open == nil || len(in.Succs()) != 1 {
				break
			}
			if f2 := leadingFence(in.Succs()[0]); f2 != nil && f2 != open {
				add(&candidate{kind: EditSinkFence, in: open, fn: fn, partner: f2, origin: "scan"})
			}
		}
	}
}

// leadingFence returns the first fence of b when no store, flush, or
// call precedes it, else nil.
func leadingFence(b *ir.Block) *ir.Instr {
	for _, in := range b.Instrs {
		switch in.Op {
		case ir.OpFence:
			return in
		case ir.OpStore, ir.OpNTStore, ir.OpFlush, ir.OpCall:
			return nil
		}
	}
	return nil
}

// siteEvidence is a flush or fence site that did nothing over the whole
// trace.
type siteEvidence struct {
	in *ir.Instr
	fn *ir.Func
}

// traceEvidence returns the flush sites none of whose executions moved
// a store and the fence sites none of whose executions drained one:
// dynamically dead persistency operations under this workload, as the
// detector found them on the signature's run (pmcheck.Result's
// RedundantFlushes and RedundantFences). Only bare flush/fence IR
// instructions in defined functions qualify; events produced by
// builtins (flush_range) resolve to call sites and are skipped.
func traceEvidence(mod *ir.Module, sig *progSig) []*siteEvidence {
	type siteKey struct {
		fn string
		id int
	}
	keyOf := func(e *trace.Event) siteKey {
		s := e.Site()
		return siteKey{s.Func, s.InstrID}
	}
	// redundant counts each site's redundant events; executed counts all
	// the events of those sites.
	redundant := make(map[siteKey]int)
	for _, e := range sig.check.RedundantFlushes {
		redundant[keyOf(e)]++
	}
	for _, e := range sig.check.RedundantFences {
		redundant[keyOf(e)]++
	}
	executed := make(map[siteKey]int, len(redundant))
	for _, e := range sig.tr.Events {
		if e.Kind == trace.KindFlush || e.Kind == trace.KindFence {
			if k := keyOf(e); redundant[k] > 0 {
				executed[k]++
			}
		}
	}

	var keys []siteKey
	for k, n := range redundant {
		if executed[k] == n {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fn != keys[j].fn {
			return keys[i].fn < keys[j].fn
		}
		return keys[i].id < keys[j].id
	})
	var out []*siteEvidence
	for _, k := range keys {
		fn := mod.Func(k.fn)
		if fn == nil || fn.IsDecl() {
			continue
		}
		in := fn.InstrByID(k.id)
		if in == nil || (in.Op != ir.OpFlush && in.Op != ir.OpFence) {
			continue
		}
		out = append(out, &siteEvidence{in: in, fn: fn})
	}
	return out
}
