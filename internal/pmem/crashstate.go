package pmem

// CrashState is a frozen capture of a tracker's durability state at one
// PM event boundary: a copy-on-write snapshot of the durable image, the
// pending stores grouped per cache line, and the reserved
// allocator-metadata line. It is everything crash-schedule enumeration
// needs to materialize feasible post-crash images — without re-executing
// the workload to the boundary or deep-cloning the durable bytes.
//
// The capture is cheap (page-map copy plus the pending-line grouping)
// and stays valid as the originating tracker keeps running: tracker
// writes privatize touched pages first, and image construction reads
// only the immutable Addr/Data fields of the captured stores (State and
// FlushSeq keep mutating in the live tracker).
type CrashState struct {
	// Durable is the COW snapshot of the durable image. It is a frozen
	// base for image overlays and must never be written.
	Durable *Memory
	// Lines are the pending stores per cache line in PendingLines order —
	// the coordinate system cut vectors index.
	Lines []PendingLine
	// Meta is the reserved allocator-metadata line (LineSize bytes at
	// PMBase) at the boundary; it is stamped into every image, as the
	// simulated hardware keeps it consistent on its own.
	Meta []byte

	hashed   bool
	baseHash uint64
}

// CaptureCrashState snapshots the tracker's durability state for later
// crash-image construction (Meta is filled in by the interpreter, which
// owns the metadata line).
func (t *Tracker) CaptureCrashState() *CrashState {
	return &CrashState{Durable: t.snapshotDurable(), Lines: t.PendingLines()}
}

// FNV-1a 64-bit parameters.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// lineContentHash hashes one cache line's content tagged with its base
// address (FNV-1a over address then bytes). All-zero content hashes to 0
// regardless of address, so untouched lines contribute nothing whether
// or not their page happens to be materialized — a whole image's hash is
// then the XOR of its non-zero lines' hashes, which lets a schedule's
// hash be derived from a base hash by swapping individual lines in and
// out.
func lineContentHash(line uint64, data []byte) uint64 {
	zero := true
	for _, b := range data {
		if b != 0 {
			zero = false
			break
		}
	}
	if zero {
		return 0
	}
	h := uint64(fnvOffset)
	for i := 0; i < 8; i++ {
		h ^= line >> (8 * i) & 0xff
		h *= fnvPrime
	}
	for _, b := range data {
		h ^= uint64(b)
		h *= fnvPrime
	}
	return h
}

// BaseHash returns the content hash of the all-zero-cut image: the
// durable PM bytes plus the metadata line. It walks the durable image
// once per crash state (memoized); HashCuts derives every schedule's
// hash from it by per-line adjustment.
func (cs *CrashState) BaseHash() uint64 {
	if cs.hashed {
		return cs.baseHash
	}
	h := uint64(0)
	cs.Durable.forEachPage(PMBase, func(addr uint64, pg *[pageSize]byte) {
		for off := 0; off < pageSize; off += LineSize {
			la := addr + uint64(off)
			if la == PMBase {
				continue // metadata line: cs.Meta overrides durable content
			}
			h ^= lineContentHash(la, pg[off:off+LineSize])
		}
	})
	h ^= lineContentHash(PMBase, cs.Meta)
	cs.baseHash = h
	cs.hashed = true
	return h
}

// cutAt clamps a cut vector entry exactly as Tracker.CrashImagePrefix
// does: missing entries are 0, values outside [0, max] clamp.
func cutAt(cuts []int, i, max int) int {
	c := 0
	if i < len(cuts) {
		c = cuts[i]
	}
	if c < 0 {
		c = 0
	}
	if c > max {
		c = max
	}
	return c
}

// HashCuts returns the content hash of the post-crash image selected by
// cuts, derived from BaseHash by replacing each cut line's durable
// content with its store prefix. Byte-identical images hash equal no
// matter which schedule (or which crash state with the same bytes)
// produced them — the content addressing the verdict dedup keys on.
// Pending lines never cover the metadata line (program stores start
// after it), so Meta needs no special casing here.
func (cs *CrashState) HashCuts(cuts []int) uint64 {
	h := cs.BaseHash()
	var old, cur [LineSize]byte
	for i := range cs.Lines {
		pl := &cs.Lines[i]
		cut := cutAt(cuts, i, len(pl.Stores))
		if cut == 0 {
			continue
		}
		cs.Durable.Read(pl.Line, old[:])
		cur = old
		for _, st := range pl.Stores[:cut] {
			copy(cur[st.Addr-pl.Line:], st.Data)
		}
		if cur == old {
			continue // prefix reproduced the durable bytes exactly
		}
		h ^= lineContentHash(pl.Line, old[:]) ^ lineContentHash(pl.Line, cur[:])
	}
	return h
}

// ImageBuilder materializes post-crash images for one crash state. It
// keeps a single working overlay over the frozen durable base and moves
// between schedules by applying per-line deltas (Seek), so visiting
// schedule k+1 after schedule k costs only the stores whose cuts differ
// — not a fresh replay from the durable image, let alone a deep clone
// of it.
type ImageBuilder struct {
	cs   *CrashState
	img  *Memory
	cuts []int
}

// NewBuilder returns a builder positioned at the all-zero schedule
// (nothing unfenced survived).
func (cs *CrashState) NewBuilder() *ImageBuilder {
	img := cs.Durable.Overlay()
	if len(cs.Meta) > 0 {
		img.Write(PMBase, cs.Meta)
	}
	return &ImageBuilder{cs: cs, img: img, cuts: make([]int, len(cs.Lines))}
}

// Seek moves the working image to the given schedule. Lines whose cut
// grew replay only the new stores; lines whose cut shrank are restored
// from the durable base and replay their shorter prefix. Cut values are
// clamped exactly as Tracker.CrashImagePrefix clamps them.
func (b *ImageBuilder) Seek(cuts []int) {
	for i := range b.cs.Lines {
		pl := &b.cs.Lines[i]
		want := cutAt(cuts, i, len(pl.Stores))
		have := b.cuts[i]
		if want == have {
			continue
		}
		if want < have {
			var buf [LineSize]byte
			b.cs.Durable.Read(pl.Line, buf[:])
			b.img.Write(pl.Line, buf[:])
			have = 0
		}
		for _, st := range pl.Stores[have:want] {
			b.img.Write(st.Addr, st.Data)
		}
		b.cuts[i] = want
	}
}

// Hash returns the content hash of the current schedule's image.
func (b *ImageBuilder) Hash() uint64 { return b.cs.HashCuts(b.cuts) }

// Image returns the current schedule's image as a COW snapshot,
// isolated both from later Seeks and from the recovery run's own writes.
// Each recovery entry wants its own snapshot: entries mutate their
// image.
func (b *ImageBuilder) Image() *Memory { return b.img.Snapshot() }
