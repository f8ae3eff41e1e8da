// Package arena is the repo's one chunk allocator: records that live as
// long as their owner (trace events, stack frames, tracked stores and
// their payloads) are carved from a few block allocations instead of one
// heap allocation each. Chunks start small and double up to a cap, so a
// short run pays for roughly the records it takes while a long one
// amortizes to a few large chunks.
package arena

// Chunks hands out slices carved from chunk allocations. Records are
// never recycled: a slice returned by Take stays valid, and untouched by
// later Takes, for as long as the caller holds it. The zero value is not
// usable; build one with New.
type Chunks[T any] struct {
	free []T
	next int // size of the next chunk
	max  int // chunk size cap
}

// New returns an allocator whose first chunk holds first records and
// whose later chunks double up to max records.
func New[T any](first, max int) Chunks[T] {
	return Chunks[T]{next: first, max: max}
}

// Take returns n zeroed records. The slice is capacity-clipped, so an
// append by the caller cannot clobber a neighbor. A request that does not
// fit the current chunk starts a new one (the current chunk's tail is
// abandoned); a request larger than the cap gets a chunk of its own.
func (c *Chunks[T]) Take(n int) []T {
	if n > len(c.free) {
		if n > c.max {
			return make([]T, n)
		}
		size := c.next
		for size < n {
			size *= 2
		}
		size = min(size, c.max)
		c.free = make([]T, size)
		c.next = min(2*size, c.max)
	}
	out := c.free[:n:n]
	c.free = c.free[n:]
	return out
}
