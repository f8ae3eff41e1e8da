package ir

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
)

// FuncFingerprint content-hashes one function body in a canonical,
// module-order-independent form: the signature, every block and
// instruction (IDs, operands, opcode attributes, and source locations —
// locations matter because analysis reports carry them), the sizes the
// analyses read off types, plus the declarations of every referenced
// global (name, layout size, PM-ness, init image) and the signature of
// every referenced callee. Two functions fingerprint equal exactly when
// every analysis that looks only at this body — and at the named
// interfaces of what it references — must produce identical canonical
// results. Callee *bodies* are deliberately excluded: incremental
// analyses chain them in separately (a callee's summary hash feeds the
// caller's cache key), which is what makes invalidation transitive
// by construction.
//
// The result is memoized on the function: structural mutations through
// Block helpers and Renumber invalidate it, so repeated analyses of an
// unchanged body hash once. Like Renumber, memoization is not safe for
// concurrent calls on the same function; analyses run single-threaded
// over a module and concurrent jobs parse their own copies.
func FuncFingerprint(f *Func) string {
	if f.fp != "" {
		return f.fp
	}
	h := fpHasher{d: sha256.New(), buf: make([]byte, 0, fpScratchSize)}
	h.str(f.Name)
	for _, p := range f.Params {
		h.str(p.Name)
		h.typ(p.Ty)
	}
	h.str("->")
	h.typ(f.Ret)

	// Referenced globals and callees, deduplicated in first-use order
	// (body order, so the set and its order are body-determined).
	var globals []*Global
	var callees []*Func
	seenG := map[*Global]bool{}
	seenF := map[*Func]bool{}
	noteVal := func(v Value) {
		if g, ok := v.(*Global); ok && !seenG[g] {
			seenG[g] = true
			globals = append(globals, g)
		}
	}

	for _, b := range f.Blocks {
		h.str2("^", b.Name)
		for _, in := range b.Instrs {
			h.u64(uint64(in.ID))
			h.u64(uint64(in.Op))
			h.str(in.Name)
			h.typ(in.Ty)
			for _, a := range in.Args {
				h.operand(a)
				noteVal(a)
			}
			if t := in.AllocTy(); t != nil {
				h.typ(t)
			}
			if t := in.StoreTy(); t != nil {
				h.typ(t)
			}
			h.i64(in.Scale())
			h.i64(in.Disp())
			h.u64(uint64(in.FlushK))
			h.u64(uint64(in.FenceK))
			h.u64(uint64(in.Order))
			h.u64(uint64(in.RMWK))
			if callee := in.Callee(); callee != nil {
				h.str2("@", callee.Name)
				if !seenF[callee] {
					seenF[callee] = true
					callees = append(callees, callee)
				}
			}
			for _, s := range in.Succs() {
				h.str2("^", s.Name)
			}
			loc := in.Loc()
			h.str(loc.File)
			h.u64(uint64(loc.Line))
		}
	}

	h.str("globals")
	for _, g := range globals {
		h.str(g.Name)
		h.typ(g.Elem)
		if g.PM {
			h.str("pm")
		}
		h.raw(g.Init)
		h.u64(uint64(len(g.Init)))
	}
	h.str("callees")
	for _, c := range callees {
		h.str(c.Sig())
		if c.IsDecl() {
			h.str("decl")
		}
	}
	h.flush()
	var hx [2 * sha256.Size]byte
	hex.Encode(hx[:], h.d.Sum(h.buf))
	f.fp = string(hx[:])
	return f.fp
}

// fpScratchSize is the fingerprint's scratch buffer: the digest is fed
// in writes of about this size, however long the body.
const fpScratchSize = 512

// fpHasher streams the canonical byte encoding into a SHA-256 digest.
// Every field is length- or tag-delimited so adjacent fields cannot be
// confused. Fields are encoded into buf, which never outgrows the
// scratch array it starts on: it is written to the digest whenever the
// next field might not fit. The digest sees the same bytes a whole
// encoding built first would hold, so the value does not depend on
// where the writes split. The digest is written through hash.Hash, so
// the scratch lives on the heap: one fixed allocation per fingerprint.
type fpHasher struct {
	d   hash.Hash
	buf []byte
}

// flush writes the buffered bytes to the digest.
func (h *fpHasher) flush() {
	h.d.Write(h.buf)
	h.buf = h.buf[:0]
}

// room makes space for n more bytes (n ≤ fpScratchSize).
func (h *fpHasher) room(n int) {
	if cap(h.buf)-len(h.buf) < n {
		h.flush()
	}
}

// text appends s, flushing as often as it fills the buffer.
func (h *fpHasher) text(s string) {
	for len(s) > 0 {
		h.room(1)
		n := copy(h.buf[len(h.buf):cap(h.buf)], s)
		h.buf = h.buf[:len(h.buf)+n]
		s = s[n:]
	}
}

// raw appends p unframed.
func (h *fpHasher) raw(p []byte) {
	h.flush()
	h.d.Write(p)
}

func (h *fpHasher) str(s string) {
	h.u64(uint64(len(s)))
	h.text(s)
}

// str2 encodes the concatenation a+b as one str field, without building it.
func (h *fpHasher) str2(a, b string) {
	h.u64(uint64(len(a) + len(b)))
	h.text(a)
	h.text(b)
}

func (h *fpHasher) u64(v uint64) {
	h.room(binary.MaxVarintLen64)
	h.buf = binary.AppendUvarint(h.buf, v)
}

func (h *fpHasher) i64(v int64) {
	h.room(binary.MaxVarintLen64)
	h.buf = binary.AppendVarint(h.buf, v)
}

func (h *fpHasher) typ(t Type) {
	if t == nil {
		h.str("<nil>")
		return
	}
	// The type string plus its computed size: struct types print by name,
	// so the size pins the layout the analyses actually consume. Basic
	// types spell as constants and structs as "%" plus their name, so
	// neither builds a string; array types are rare in bodies.
	if st, ok := t.(*StructType); ok {
		h.str2("%", st.Name)
	} else {
		h.str(t.String())
	}
	h.i64(t.Size())
}

// operand encodes one operand positionally: constants by type and value,
// globals by name, parameters by index, instruction results by ID.
func (h *fpHasher) operand(v Value) {
	switch x := v.(type) {
	case *Const:
		h.text("c")
		h.typ(x.Ty)
		h.i64(x.Val)
	case *Global:
		h.text("g")
		h.str(x.Name)
	case *Param:
		h.text("p")
		h.u64(uint64(x.Index))
	case *Instr:
		h.text("r")
		h.u64(uint64(x.ID))
	default:
		h.text("?")
		h.str(v.OperandString())
	}
}
