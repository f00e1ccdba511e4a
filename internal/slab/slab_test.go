package slab

import "testing"

// TestSlabRunsAndRecycle: a cold slab's first chunk is what its first
// piece asked for, a run takes what the chunk has left before it starts a
// new chunk, handing back a run's unused end works only while nothing was
// carved after it, and a recycle consolidates the chunks into one holding
// everything carved, scrubbed or cleared.
func TestSlabRunsAndRecycle(t *testing.T) {
	var s Slab[int]
	first := s.Take(10)
	if cap(s.cur) != 10 {
		t.Fatalf("a cold slab's first chunk holds %d elements, want the 10 asked for", cap(s.cur))
	}
	s.Give(first[2:])
	a := s.TakeRun(1, 6)
	if len(a) != 6 || len(s.full) != 0 {
		t.Fatalf("a run has %d elements over %d full chunks, want 6 from the chunk's 8 left", len(a), len(s.full))
	}
	b := s.TakeRun(1, 8)
	if len(b) != 2 {
		t.Fatalf("a run at the chunk's end has %d elements, want the 2 left", len(b))
	}
	s.Give(a[4:]) // carved before b: stays carved
	if s.total != 10 {
		t.Fatalf("handing back a run that is not the last carved left %d carved, want 10", s.total)
	}
	c := s.TakeRun(3, 4)
	if len(c) != 4 || len(s.full) != 1 {
		t.Fatalf("a run the chunk cannot serve has %d elements over %d full chunks, want 4 in a new chunk", len(c), len(s.full))
	}
	s.Give(c[1:])
	if s.total != 11 {
		t.Fatalf("handing back the end of the last run left %d carved, want 11", s.total)
	}
	for i := range a {
		a[i] = 7
	}
	c[0] = 7
	s.Recycle(true, -1)
	if a[0] != -1 || c[0] != -1 {
		t.Fatalf("a scrubbed recycle left %d and %d, want garbage", a[0], c[0])
	}
	if len(s.full) != 0 || cap(s.cur) != 11 || len(s.cur) != 0 {
		t.Fatalf("recycled slab has %d full chunks and a chunk of %d, want one chunk of the 11 carved", len(s.full), cap(s.cur))
	}
	d := s.Take(11)
	d[0] = 5
	s.Recycle(false, -1)
	if d[0] != 0 || cap(s.cur) != 11 {
		t.Fatalf("an unscrubbed recycle left %d in a chunk of %d, want it cleared in the same chunk", d[0], cap(s.cur))
	}
}
