package pmem

import (
	"encoding/binary"
	"sync/atomic"
)

// pageSize is the granularity of allocation and copy-on-write. It is a
// multiple of LineSize, so a cache line never straddles two pages. Small
// pages keep a short run's footprint proportional to the lines it
// touches: a run that writes a few scattered lines pays a few 256-byte
// pages, not a 4 KiB page per line, and a copy-on-write fault copies
// 256 bytes. Larger pages cost short runs more; smaller ones cost more
// in chunk pointers than they save (DESIGN.md has the sweep).
const pageSize = 1 << 8

// The page map is keyed by 4 KiB chunk, not by page, so it holds as
// few keys as it did with 4 KiB pages: a short run's map stays within
// the runtime's small-map fast path, and a long run's lookups hash no
// more keys. Each chunk holds its chunkPages pages.
const (
	chunkSize  = 1 << 12
	chunkPages = chunkSize / pageSize
)

// The build fails if pageSize stops being a multiple of LineSize, or if
// a chunk has more pages than chunk.shared has bits.
var (
	_ [pageSize % LineSize]struct{} = [0]struct{}{}
	_ [16 - chunkPages]struct{}
)

// chunk holds one chunk's materialized pages.
type chunk struct {
	pages [chunkPages]*[pageSize]byte
	// cn is the chunk's number (address / chunkSize), so a Memory's
	// one-entry chunk cache is a single pointer.
	cn uint64
	// shared has bit i set while pages[i] is co-owned with a snapshot:
	// a write must copy the page before mutating it.
	shared uint16
}

// CowStats aggregates copy-on-write page accounting for one snapshot
// family (every Memory derived from the same root shares one). The
// fields are atomic because image overlays derived from a shared frozen
// base may be written from concurrent crash-validation workers.
type CowStats struct {
	// Snapshots counts Snapshot calls in the family.
	Snapshots atomic.Int64
	// PagesShared counts page references handed out by Snapshot instead
	// of deep-copied.
	PagesShared atomic.Int64
	// PagesCopied counts pages that were privatized by a write (the
	// actual copy work the family ever paid).
	PagesCopied atomic.Int64
}

// Memory is a sparse byte-addressable memory covering the whole simulated
// address space. Pages materialize (zeroed) on first touch; reads of
// untouched pages return zeros without allocating.
//
// Snapshots are copy-on-write: Snapshot shares every current page with
// the new Memory and the first write on either side privatizes the
// touched page. Overlay layers an empty page map over a frozen base, so
// many images can share one durable base; the base must not be written
// while overlays of it are live.
//
// A Memory remembers the last chunk of its own map that an access
// resolved, so consecutive accesses to one 4 KiB chunk skip the map.
// Reads update that cache, so a Memory is used from one goroutine at a
// time; concurrent readers of a frozen image each take an Overlay of it
// (reads through a base chain never touch the base's cache).
type Memory struct {
	chunks map[uint64]*chunk
	// last is the chunk the most recent access resolved in chunks, or
	// nil. Entries of chunks are only ever added, never replaced or
	// removed (Reset keeps them), so a cached chunk stays the map's entry
	// for its number.
	last *chunk
	// base is the frozen lower layer for overlays (nil for roots).
	// Reads fall through to it; writes copy the page up.
	base *Memory
	// stats is the family-wide COW accounting.
	stats *CowStats
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{chunks: make(map[uint64]*chunk), stats: new(CowStats)}
}

// Reset empties a root memory (one with no base) for another run,
// keeping what it allocated: afterwards it reads exactly as NewMemory()
// would. A page the memory owns alone is zeroed in place, and its chunk
// and map entry stay for the next run; a page co-owned with a snapshot is
// dropped, never zeroed, so every snapshot keeps its bytes. The memory
// must not be the base of a live overlay. A memory whose snapshot family
// counted anything gets new stats, so the family's own are left as they
// are.
func (m *Memory) Reset() {
	if m.base != nil {
		panic("pmem: Reset of an overlay")
	}
	for _, c := range m.chunks {
		for i, pg := range c.pages {
			switch {
			case pg == nil:
			case c.shared&(1<<i) != 0:
				c.pages[i] = nil
			default:
				*pg = [pageSize]byte{}
			}
		}
		c.shared = 0
	}
	m.last = nil
	if s := m.stats; s.Snapshots.Load() != 0 || s.PagesCopied.Load() != 0 {
		m.stats = new(CowStats)
	}
}

// Stats returns the COW accounting shared by this memory's whole
// snapshot family.
func (m *Memory) Stats() *CowStats { return m.stats }

// lookup finds page pn through the base chain without materializing or
// privatizing anything.
func (m *Memory) lookup(pn uint64) *[pageSize]byte {
	for mm := m; mm != nil; mm = mm.base {
		if c := mm.chunks[pn/chunkPages]; c != nil {
			if pg := c.pages[pn%chunkPages]; pg != nil {
				return pg
			}
		}
	}
	return nil
}

// chunkFor returns chunk cn, creating it if absent, and caches it.
func (m *Memory) chunkFor(cn uint64) *chunk {
	c := m.chunks[cn]
	if c == nil {
		c = &chunk{cn: cn}
		m.chunks[cn] = c
	}
	m.last = c
	return c
}

// chunkAt returns chunk cn of m's own map (nil if absent) through the
// one-entry cache.
func (m *Memory) chunkAt(cn uint64) *chunk {
	if c := m.last; c != nil && c.cn == cn {
		return c
	}
	c := m.chunks[cn]
	if c != nil {
		m.last = c
	}
	return c
}

func (m *Memory) page(addr uint64, create bool) (*[pageSize]byte, uint64) {
	pn := addr / pageSize
	off := addr % pageSize
	cn, i := pn/chunkPages, pn%chunkPages
	c := m.chunkAt(cn)
	if c != nil {
		if pg := c.pages[i]; pg != nil {
			if create && c.shared&(1<<i) != 0 {
				// Copy-on-write: privatize the page co-owned with a snapshot.
				cp := new([pageSize]byte)
				*cp = *pg
				c.pages[i] = cp
				c.shared &^= 1 << i
				m.stats.PagesCopied.Add(1)
				return cp, off
			}
			return pg, off
		}
	}
	if m.base != nil {
		if bp := m.base.lookup(pn); bp != nil {
			if !create {
				return bp, off
			}
			// Copy-up: writes never reach the frozen base.
			cp := new([pageSize]byte)
			*cp = *bp
			m.chunkFor(cn).pages[i] = cp
			m.stats.PagesCopied.Add(1)
			return cp, off
		}
	}
	if !create {
		return nil, off
	}
	if c == nil {
		c = m.chunkFor(cn)
	}
	pg := new([pageSize]byte)
	c.pages[i] = pg
	return pg, off
}

// Snapshot returns a copy-on-write copy of the memory: both sides keep
// reading the shared pages for free and the first write to a page (from
// either side) copies just that page. The receiver and the snapshot are
// used from a single goroutine each. The receiver keeps its chunks (and
// its cached one); the snapshot gets chunks of its own and an empty
// cache.
func (m *Memory) Snapshot() *Memory {
	nm := &Memory{
		chunks: make(map[uint64]*chunk, len(m.chunks)),
		base:   m.base,
		stats:  m.stats,
	}
	shared := 0
	for cn, c := range m.chunks {
		var mask uint16
		for i, pg := range c.pages {
			if pg != nil {
				mask |= 1 << i
				shared++
			}
		}
		c.shared = mask
		nc := *c
		nm.chunks[cn] = &nc
	}
	m.stats.Snapshots.Add(1)
	m.stats.PagesShared.Add(int64(shared))
	return nm
}

// Overlay returns an empty memory layered over m: reads fall through to
// m, writes copy the touched page up into the overlay. The base must not
// be written while the overlay is live; a frozen base may back any
// number of concurrent overlays (each overlay is single-goroutine).
func (m *Memory) Overlay() *Memory {
	return &Memory{chunks: make(map[uint64]*chunk), base: m, stats: m.stats}
}

// forEachPage calls fn once per materialized page whose base address is
// >= from, walking the union over the base chain (upper layers win).
// Iteration order is unspecified.
func (m *Memory) forEachPage(from uint64, fn func(pageAddr uint64, pg *[pageSize]byte)) {
	var seen map[uint64]bool
	if m.base != nil {
		seen = make(map[uint64]bool)
	}
	for mm := m; mm != nil; mm = mm.base {
		for cn, c := range mm.chunks {
			for i, pg := range c.pages {
				pn := cn*chunkPages + uint64(i)
				if pg == nil || pn*pageSize < from || seen[pn] {
					continue
				}
				if seen != nil {
					seen[pn] = true
				}
				fn(pn*pageSize, pg)
			}
		}
	}
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint64) byte {
	pg, off := m.page(addr, false)
	if pg == nil {
		return 0
	}
	return pg[off]
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint64, v byte) {
	pg, off := m.page(addr, true)
	pg[off] = v
}

// Read copies len(dst) bytes starting at addr into dst.
func (m *Memory) Read(addr uint64, dst []byte) {
	for len(dst) > 0 {
		pg, off := m.page(addr, false)
		n := pageSize - int(off)
		if n > len(dst) {
			n = len(dst)
		}
		if pg == nil {
			clear(dst[:n])
		} else {
			copy(dst[:n], pg[off:int(off)+n])
		}
		dst = dst[n:]
		addr += uint64(n)
	}
}

// Write copies src into memory starting at addr.
func (m *Memory) Write(addr uint64, src []byte) {
	for len(src) > 0 {
		pg, off := m.page(addr, true)
		n := pageSize - int(off)
		if n > len(src) {
			n = len(src)
		}
		copy(pg[off:int(off)+n], src[:n])
		src = src[n:]
		addr += uint64(n)
	}
}

// ReadUint reads a little-endian unsigned integer of the given byte size
// (1 or 8).
func (m *Memory) ReadUint(addr uint64, size int) uint64 {
	switch size {
	case 1:
		return uint64(m.Load8(addr))
	case 8:
		if addr%pageSize <= pageSize-8 {
			// Inside one page: read it in place.
			pg, off := m.page(addr, false)
			if pg == nil {
				return 0
			}
			return binary.LittleEndian.Uint64(pg[off:])
		}
		var buf [8]byte
		m.Read(addr, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	default:
		var buf [8]byte
		m.Read(addr, buf[:size])
		v := uint64(0)
		for i := size - 1; i >= 0; i-- {
			v = v<<8 | uint64(buf[i])
		}
		return v
	}
}

// WriteUint writes a little-endian unsigned integer of the given byte size.
func (m *Memory) WriteUint(addr uint64, size int, v uint64) {
	switch size {
	case 1:
		m.Store8(addr, byte(v))
	case 8:
		if addr%pageSize <= pageSize-8 {
			pg, off := m.page(addr, true)
			binary.LittleEndian.PutUint64(pg[off:], v)
			return
		}
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		m.Write(addr, buf[:])
	default:
		var buf [8]byte
		for i := 0; i < size; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		m.Write(addr, buf[:size])
	}
}

// Clone deep-copies the memory, flattening any base chain into a fresh
// root. Snapshot is almost always the better choice; Clone remains the
// reference semantics the COW equivalence tests compare against.
func (m *Memory) Clone() *Memory {
	nm := NewMemory()
	m.forEachPage(0, func(addr uint64, pg *[pageSize]byte) {
		cp := new([pageSize]byte)
		*cp = *pg
		pn := addr / pageSize
		nm.chunkFor(pn / chunkPages).pages[pn%chunkPages] = cp
	})
	return nm
}

// DiffPM counts bytes that differ between two memories over the
// persistent range, skipping the reserved allocator-metadata line. It
// walks the union of both memories' materialized PM pages, so sparse
// images compare cheaply.
func DiffPM(a, b *Memory) int {
	pages := map[uint64]bool{}
	a.forEachPage(PMBase, func(addr uint64, _ *[pageSize]byte) { pages[addr/pageSize] = true })
	b.forEachPage(PMBase, func(addr uint64, _ *[pageSize]byte) { pages[addr/pageSize] = true })
	diff := 0
	bufA := make([]byte, pageSize)
	bufB := make([]byte, pageSize)
	for pn := range pages {
		addr := pn * pageSize
		a.Read(addr, bufA)
		b.Read(addr, bufB)
		start := 0
		if addr == PMBase {
			start = LineSize // allocator metadata line
		}
		for i := start; i < pageSize; i++ {
			if bufA[i] != bufB[i] {
				diff++
			}
		}
	}
	return diff
}
