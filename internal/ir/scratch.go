package ir

// scratchMap is a map reused from one function to the next.
type scratchMap[K comparable, V any] struct {
	m map[K]V
	// peak is the most entries m was reset for. Clearing costs about
	// that much whatever m holds now, so a map far larger than the next
	// function needs is dropped rather than cleared: one huge function
	// ahead of many small ones must not make each small one pay for it.
	peak int
}

// reset returns the map emptied for a function that will put at most
// n entries in it.
func (s *scratchMap[K, V]) reset(n int) map[K]V {
	if s.m == nil || s.peak > 4*n+64 {
		s.m, s.peak = make(map[K]V, n), n
		return s.m
	}
	clear(s.m)
	s.peak = max(s.peak, n)
	return s.m
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are the caller's to reset.
func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}
