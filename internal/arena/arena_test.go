package arena

import "testing"

// TestGrowthSequence: chunks start at the first size and double up to the
// cap, then stay there.
func TestGrowthSequence(t *testing.T) {
	c := New[int](4, 32)
	var sizes []int
	for i := 0; i < 4+8+16+5*32; i++ {
		if len(c.free) == 0 {
			c.Take(1)
			sizes = append(sizes, len(c.free)+1)
			continue
		}
		c.Take(1)
	}
	want := []int{4, 8, 16, 32, 32, 32, 32, 32}
	if len(sizes) != len(want) {
		t.Fatalf("chunk sizes %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("chunk sizes %v, want %v", sizes, want)
		}
	}
}

// TestRequestAboveNextChunk: a request larger than the next chunk but
// within the cap rounds the chunk up by doubling, never past the cap.
func TestRequestAboveNextChunk(t *testing.T) {
	c := New[int](4, 32)
	c.Take(5) // needs 8
	if got := len(c.free); got != 3 {
		t.Fatalf("free after Take(5) from a 4-first arena = %d, want 3", got)
	}
	if c.next != 16 {
		t.Fatalf("next chunk = %d, want 16", c.next)
	}
	c.Take(20) // needs 32 = cap
	if got := len(c.free); got != 12 {
		t.Fatalf("free after Take(20) = %d, want 12", got)
	}
	if c.next != 32 {
		t.Fatalf("next chunk = %d, want the cap 32", c.next)
	}
}

// TestOversizeRequest: a request above the cap gets its own chunk and
// leaves the current chunk and the growth state alone.
func TestOversizeRequest(t *testing.T) {
	c := New[int](4, 8)
	c.Take(1)
	free, next := len(c.free), c.next
	big := c.Take(100)
	if len(big) != 100 || cap(big) != 100 {
		t.Fatalf("oversize Take: len %d cap %d, want 100/100", len(big), cap(big))
	}
	if len(c.free) != free || c.next != next {
		t.Fatalf("oversize Take disturbed the arena: free %d→%d, next %d→%d", free, len(c.free), next, c.next)
	}
}

// TestCapacityClipped: an append to a taken slice reallocates instead of
// writing into the neighbor's records.
func TestCapacityClipped(t *testing.T) {
	c := New[int](16, 16)
	a := c.Take(3)
	b := c.Take(3)
	if cap(a) != 3 || cap(b) != 3 {
		t.Fatalf("caps %d/%d, want 3/3", cap(a), cap(b))
	}
	b[0] = 7
	a = append(a, 99)
	if b[0] != 7 {
		t.Fatalf("append to a clobbered b[0] = %d", b[0])
	}
	for _, v := range c.Take(10) {
		if v != 0 {
			t.Fatal("Take returned non-zero records")
		}
	}
}

// TestPointerStability: records taken from earlier chunks keep their
// addresses and contents as later chunks are allocated.
func TestPointerStability(t *testing.T) {
	c := New[int](2, 8)
	var ptrs []*int
	for i := 0; i < 100; i++ {
		p := &c.Take(1)[0]
		*p = i
		ptrs = append(ptrs, p)
	}
	seen := map[*int]bool{}
	for i, p := range ptrs {
		if *p != i {
			t.Fatalf("record %d reads %d after later Takes", i, *p)
		}
		if seen[p] {
			t.Fatalf("record %d shares an address with an earlier record", i)
		}
		seen[p] = true
	}
}
