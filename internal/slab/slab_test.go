package slab

import (
	"sync"
	"testing"
)

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
	a := s.Claim(first[2:], 1, 6)
	if len(a) != 6 || len(s.full) != 0 {
		t.Fatalf("a run has %d elements over %d full chunks, want 6 from the chunk's 8 left", len(a), len(s.full))
	}
	b := s.Claim(nil, 1, 8)
	if len(b) != 2 {
		t.Fatalf("a run at the chunk's end has %d elements, want the 2 left", len(b))
	}
	s.Give(a[4:]) // carved before b: stays carved
	if s.total != 10 {
		t.Fatalf("handing back a run that is not the last carved left %d carved, want 10", s.total)
	}
	c := s.Claim(nil, 3, 4)
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

// TestSlabConcurrentCarving: workers carving one slab at once, by Take
// and by runs they Claim and Give back, get disjoint pieces, every one
// inside what the slab counts as carved, and a recycle consolidates the
// slab into one chunk of exactly that and clears every piece. Each worker
// marks its pieces with their own IDs, so an element two pieces share
// shows as a lost mark; -race reports any method that skips the lock.
func TestSlabConcurrentCarving(t *testing.T) {
	const workers, pieces = 8, 300
	var s Slab[int]
	kept := make([][][]int, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var run []int
			for i := range pieces {
				n := 1 + (w+i)%5
				var p []int
				switch {
				case i%4 == 0:
					p = s.Take(n)
				case i%25 == 0:
					s.Give(run) // a handed-back run is never used again
					run = nil
					fallthrough
				default:
					if len(run) < n {
						run = s.Claim(run, n, 16)
					}
					p, run = run[:n:n], run[n:]
				}
				for j := range p {
					p[j] = w*pieces + i + 1
				}
				kept[w] = append(kept[w], p)
			}
			s.Give(run)
		}()
	}
	wg.Wait()

	marked := 0
	for w := range kept {
		for i, p := range kept[w] {
			for _, v := range p {
				if v != w*pieces+i+1 {
					t.Fatalf("piece %d of worker %d holds %d, want its own mark %d: two pieces share an element", i, w, v, w*pieces+i+1)
				}
			}
			marked += len(p)
		}
	}
	carved, nonzero := len(s.cur), 0
	for _, c := range append(s.full, s.cur) {
		for _, v := range c {
			if v != 0 {
				nonzero++
			}
		}
	}
	for _, c := range s.full {
		carved += len(c)
	}
	if nonzero != marked {
		t.Fatalf("the slab's carved chunks hold %d marked elements, want the %d of every piece", nonzero, marked)
	}
	if s.total != carved || s.total < marked {
		t.Fatalf("the slab counts %d carved over chunks carved to %d, with %d in pieces", s.total, carved, marked)
	}
	total := s.total
	s.Recycle(false, 0)
	if len(s.full) != 0 || cap(s.cur) != total || len(s.cur) != 0 || s.total != 0 {
		t.Fatalf("recycled slab has %d full chunks and a chunk of %d, want one empty chunk of the %d carved", len(s.full), cap(s.cur), total)
	}
	for w := range kept {
		for _, p := range kept[w] {
			for _, v := range p {
				if v != 0 {
					t.Fatalf("a recycle left %d in a piece, want it cleared", v)
				}
			}
		}
	}
}
