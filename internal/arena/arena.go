// Package arena is the repo's one chunk allocator: records that live as
// long as their owner (trace events, stack frames, tracked stores and
// their payloads) are carved from a few block allocations instead of one
// heap allocation each. Chunks start small and double up to a cap, so a
// short run pays for roughly the records it takes while a long one
// amortizes to a few large chunks. An owner that runs again (the
// interpreter recording one explored schedule after another) rewinds its
// arena instead of dropping it, and the next run's records reuse the
// last chunk. An owner whose records die one at a time while others live
// on (the durability tracker's store records, which crash states may
// still hold) never rewinds: it keeps the dead records on a free list of
// its own and takes from the arena only when that list is empty.
package arena

// Chunks hands out slices carved from chunk allocations. A slice returned
// by Take stays valid, and untouched by later Takes, until the next
// Rewind: Rewind hands the current chunk's records out again, so whoever
// rewinds must hold no slice taken before it. An arena that is never
// rewound never recycles a record. The zero value is not usable; build
// one with New.
//
// The sizes are int32 so that the rewind position costs no more than the
// free-tail slice it replaced: embedding an arena must not grow its
// owner's allocation.
type Chunks[T any] struct {
	// chunk is the current chunk in full; records [used:] are untaken.
	chunk []T
	used  int32
	next  int32 // size of the next chunk
	max   int32 // chunk size cap
}

// New returns an allocator whose first chunk holds first records and
// whose later chunks double up to max records.
func New[T any](first, max int) Chunks[T] {
	return Chunks[T]{next: int32(first), max: int32(max)}
}

// left is the number of untaken records in the current chunk.
func (c *Chunks[T]) left() int { return len(c.chunk) - int(c.used) }

// Take returns n zeroed records. The slice is capacity-clipped, so an
// append by the caller cannot clobber a neighbor. A request that does not
// fit the current chunk starts a new one (the current chunk's tail is
// abandoned); a request larger than the cap gets a chunk of its own.
func (c *Chunks[T]) Take(n int) []T {
	if n > c.left() {
		if n > int(c.max) {
			return make([]T, n)
		}
		size := int(c.next)
		for size < n {
			size *= 2
		}
		size = min(size, int(c.max))
		c.chunk = make([]T, size)
		c.used = 0
		c.next = int32(min(2*size, int(c.max)))
	}
	u := int(c.used)
	c.used += int32(n)
	return c.chunk[u : u+n : u+n]
}

// Rewind makes the current chunk's records available to Take again,
// zeroed; earlier chunks and chunks of their own are left to the
// collector, and growth resumes where it stood. Every slice taken so far
// is invalid afterwards.
func (c *Chunks[T]) Rewind() {
	clear(c.chunk[:c.used])
	c.used = 0
}
