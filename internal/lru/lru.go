// Package lru is the repo's one bounded cache: a mutex-guarded map with
// least-recently-used eviction and O(1) operations. Every content cache
// (alias constraint lists, static summaries, the daemon's responses and
// compiled artifacts) is one of these; keys are content hashes, so a
// cached value is exactly what a recompute would produce and eviction can
// only cost a recompute, never change an answer.
package lru

import "sync"

// entry is one resident key/value, linked into the recency ring.
type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next *entry[K, V]
}

// Cache holds at most max entries and is safe for concurrent use.
type Cache[K comparable, V any] struct {
	mu           sync.Mutex
	max          int
	m            map[K]*entry[K, V]
	root         entry[K, V] // ring sentinel: root.next is the most recent
	hits, misses int64
}

// New returns an empty cache bounded to max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	c := &Cache[K, V]{max: max, m: make(map[K]*entry[K, V])}
	c.root.prev, c.root.next = &c.root, &c.root
	return c
}

// Get returns the value cached under key, counting a hit or a miss; a hit
// makes the entry the most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.m[key]
	if !ok {
		c.misses++
		var zero V
		return zero, false
	}
	c.hits++
	c.toFront(e)
	return e.val, true
}

// Add caches val under key unless key is already resident, and returns
// the resident value — so racing inserts of one key converge on a single
// entry. Past max entries, the least recently used is evicted.
func (c *Cache[K, V]) Add(key K, val V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.m[key]; ok {
		c.toFront(e)
		return e.val
	}
	e := &entry[K, V]{key: key, val: val}
	c.m[key] = e
	c.link(e)
	if len(c.m) > c.max {
		old := c.root.prev
		c.unlink(old)
		delete(c.m, old.key)
	}
	return val
}

// Stats returns the cumulative Get hit and miss counts.
func (c *Cache[K, V]) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of resident entries.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

func (c *Cache[K, V]) toFront(e *entry[K, V]) {
	c.unlink(e)
	c.link(e)
}

// link inserts e as the most recent entry.
func (c *Cache[K, V]) link(e *entry[K, V]) {
	e.prev, e.next = &c.root, c.root.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}
