package arena

import "testing"

// TestGrowthSequence: chunks start at the first size and double up to the
// cap, then stay there.
func TestGrowthSequence(t *testing.T) {
	c := New[int](4, 32)
	var sizes []int
	for i := 0; i < 4+8+16+5*32; i++ {
		if c.left() == 0 {
			c.Take(1)
			sizes = append(sizes, c.left()+1)
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
	if got := c.left(); got != 3 {
		t.Fatalf("free after Take(5) from a 4-first arena = %d, want 3", got)
	}
	if c.next != 16 {
		t.Fatalf("next chunk = %d, want 16", c.next)
	}
	c.Take(20) // needs 32 = cap
	if got := c.left(); got != 12 {
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
	free, next := c.left(), c.next
	big := c.Take(100)
	if len(big) != 100 || cap(big) != 100 {
		t.Fatalf("oversize Take: len %d cap %d, want 100/100", len(big), cap(big))
	}
	if c.left() != free || c.next != next {
		t.Fatalf("oversize Take disturbed the arena: free %d→%d, next %d→%d", free, c.left(), next, c.next)
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

// TestRewindReusesCurrentChunk: after Rewind, Take hands out the current
// chunk's records again, from its start and zeroed, without allocating.
func TestRewindReusesCurrentChunk(t *testing.T) {
	c := New[int](4, 16)
	for i := 0; i < 4+8+3; i++ {
		c.Take(1)[0] = i + 1
	}
	chunk := &c.chunk[0]
	c.Rewind()
	if c.left() != 16 {
		t.Fatalf("left after Rewind = %d, want the whole current chunk (16)", c.left())
	}
	var got []int
	allocs := testing.AllocsPerRun(1, func() {
		c.Rewind()
		got = c.Take(16)
	})
	if allocs != 0 {
		t.Fatalf("Take after Rewind allocated %v times", allocs)
	}
	if &got[0] != chunk {
		t.Fatal("Take after Rewind did not start at the current chunk")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("record %d reads %d after Rewind, want 0", i, v)
		}
	}
}

// TestRewindKeepsGrowth: Rewind neither shrinks the next chunk nor keeps
// the chunks before the current one; a run that outgrows the current
// chunk starts a new chunk at the size growth had reached.
func TestRewindKeepsGrowth(t *testing.T) {
	c := New[int](4, 32)
	for i := 0; i < 4+8+1; i++ {
		c.Take(1)
	}
	if c.next != 32 || len(c.chunk) != 16 {
		t.Fatalf("chunk %d next %d, want 16/32", len(c.chunk), c.next)
	}
	c.Rewind()
	first := c.Take(16)
	second := c.Take(1)
	if len(c.chunk) != 32 || c.next != 32 {
		t.Fatalf("after outgrowing a rewound chunk: chunk %d next %d, want 32/32", len(c.chunk), c.next)
	}
	if &second[0] == &first[0] {
		t.Fatal("a new chunk reused the rewound one")
	}
}

// TestRewindLeavesOversizeChunks: a record from a chunk of its own is
// never handed out again, and Rewind of a fresh arena is a no-op.
func TestRewindLeavesOversizeChunks(t *testing.T) {
	c := New[int](4, 8)
	c.Rewind()
	if c.left() != 0 || c.next != 4 {
		t.Fatalf("Rewind of a fresh arena: left %d next %d", c.left(), c.next)
	}
	big := c.Take(100)
	big[0] = 7
	c.Rewind()
	c.Take(8)
	if big[0] != 7 {
		t.Fatalf("an oversize record was recycled: %d", big[0])
	}
}
