package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestEvictsLeastRecentlyAdded(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived past the bound; want it evicted first")
	}
	for k, want := range map[string]int{"b": 2, "c": 3} {
		if v, ok := c.Get(k); !ok || v != want {
			t.Errorf("Get(%q) = %d, %v; want %d, true", k, v, ok, want)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestTouchedEntrySurvives(t *testing.T) {
	c := New[string, int](2)
	c.Add("a", 1)
	c.Add("b", 2)
	c.Get("a") // a is now the most recent; b is next out
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived although a was touched after it")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("touched entry a evicted: Get = %d, %v", v, ok)
	}
	// Re-adding a resident key also counts as a use.
	c.Add("c", 30)
	c.Add("d", 4)
	if _, ok := c.Get("a"); ok {
		t.Error("a survived although c was re-added after it")
	}
}

func TestAddReturnsResident(t *testing.T) {
	c := New[string, int](4)
	if got := c.Add("k", 1); got != 1 {
		t.Errorf("first Add = %d, want 1", got)
	}
	if got := c.Add("k", 2); got != 1 {
		t.Errorf("second Add = %d, want the resident 1", got)
	}
	if v, _ := c.Get("k"); v != 1 {
		t.Errorf("Get = %d after a losing Add, want 1", v)
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestStatsAndLen(t *testing.T) {
	c := New[int, string](3)
	if h, m := c.Stats(); h != 0 || m != 0 || c.Len() != 0 {
		t.Fatalf("fresh cache: stats %d/%d len %d", h, m, c.Len())
	}
	c.Get(1) // miss
	c.Add(1, "one")
	c.Get(1)        // hit
	c.Get(2)        // miss
	c.Add(1, "uno") // Add counts nothing
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Errorf("Stats = %d hits / %d misses, want 1/2", h, m)
	}
	for i := 0; i < 10; i++ {
		c.Add(i, fmt.Sprint(i))
	}
	if n := c.Len(); n != 3 {
		t.Errorf("Len = %d after 10 distinct adds, want the bound 3", n)
	}
}

// TestConcurrentGetAdd hammers one small cache from many goroutines; run
// under -race it checks the locking. Racing Adds of one key must all see
// the same resident value, and the bound must hold throughout.
func TestConcurrentGetAdd(t *testing.T) {
	const workers, keys, rounds = 8, 32, 500
	c := New[int, *int](16)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				k := (i*7 + w) % keys
				if p, ok := c.Get(k); ok && *p != k {
					t.Errorf("Get(%d) = %d", k, *p)
					return
				}
				v := k
				if p := c.Add(k, &v); *p != k {
					t.Errorf("Add(%d) returned %d", k, *p)
					return
				}
				if n := c.Len(); n > 16 {
					t.Errorf("Len = %d past the bound", n)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	h, m := c.Stats()
	if h+m != workers*rounds {
		t.Errorf("hits+misses = %d, want %d", h+m, workers*rounds)
	}
}
