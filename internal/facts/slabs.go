package facts

import (
	"sync"

	"firmres/internal/cfg"
)

// slabs is the storage a store's per-function artifacts are carved from:
// one slab per element type, under one lock, because taint and lint
// workers build the artifacts of different functions concurrently. It is
// the cfg.Alloc every in-place build of the store receives, and it follows
// the rule pcode's slabs follow: a slab never moves while slices into it
// are live. A set's slabs therefore keep about what its largest program
// needed, not the largest function each handle ever held.
type slabs struct {
	mu     sync.Mutex
	blocks Slab[cfg.Block]
	ints   Slab[int]
	int32s Slab[int32]
	words  Slab[uint64]
}

func (s *slabs) Blocks(n int) []cfg.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks.Take(n)
}

func (s *slabs) Ints(n int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ints.Take(n)
}

func (s *slabs) Int32s(n int) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.int32s.Take(n)
}

func (s *slabs) Words(n int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.words.Take(n)
}

// reserve sizes the first chunk of every cold slab from the program's op
// and location counts, so a cold set does not double its way up from a
// small chunk. The factors cover what a device-cloud executable of the
// crawl set carves once the pipeline has run every stage over it: at most
// 0.09 blocks, 0.33 ints and 2.4 int32s per op, and 6.2 words per
// location.
func (s *slabs) reserve(ops, locs int) {
	s.blocks.Reserve(ops / 10)
	s.ints.Reserve(2 * ops / 5)
	s.int32s.Reserve(5 * ops / 2)
	s.words.Reserve(13 * locs / 2)
}

// recycle empties every slab for the set's next program, consolidating
// each into one chunk; with scrub, every chunk is overwritten with garbage
// first.
func (s *slabs) recycle(scrub bool) {
	s.blocks.Recycle(scrub, cfg.Block{ID: -1, Start: -1, End: -1})
	s.ints.Recycle(scrub, -0x21524111)
	s.int32s.Recycle(scrub, -0x21524111)
	s.words.Recycle(scrub, 0xdeadbeefdeadbeef)
}

// Slab is chunked storage of T, the one allocator of everything a set
// keeps for its program: the facts artifacts here, and the message trees,
// slices and fields the layers above carve into their scratch (Scratch).
// A chunk never moves: when the current one is full, Take starts a new
// one, as large as everything carved so far, and keeps the full ones,
// which carved slices still reference, until Recycle consolidates them
// into one chunk. So a slab a set keeps holds about what its largest
// program needed. A Slab is not safe for concurrent use: its owner guards
// it with a lock, and workers that carve many small pieces concurrently
// claim runs of elements at a time (TakeRun) and hand back what they
// leave (Give).
// The zero Slab is empty and ready to use.
type Slab[T any] struct {
	cur   []T   // the chunk being carved: its length is what is carved
	full  [][]T // the chunks filled before cur
	total int   // elements carved since the last recycle
	hint  int   // the size of a cold slab's first chunk
}

// Take carves n zeroed elements, capacity-clamped so nothing can append
// through into a neighbour.
func (s *Slab[T]) Take(n int) []T {
	if len(s.cur)+n > cap(s.cur) {
		if cap(s.cur) > 0 {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]T, 0, max(n, s.total, s.hint))
	}
	i := len(s.cur)
	s.cur = s.cur[:i+n]
	out := s.cur[i : i+n : i+n]
	clear(out)
	s.total += n
	return out
}

// TakeRun carves a run of at least n elements and at most max(n, run):
// what the current chunk has left, up to that, when it is at least n, or
// else a full run from a new chunk. Workers that carve many small pieces
// concurrently claim runs with it, so a run starts a new chunk only once
// the current one cannot serve the piece it is claimed for.
func (s *Slab[T]) TakeRun(n, run int) []T {
	want := max(n, run)
	if left := cap(s.cur) - len(s.cur); left >= n {
		want = min(want, left)
	}
	return s.Take(want)
}

// Give hands back rest, the unused end of a run Take carved, when nothing
// has been carved after it; otherwise rest stays carved until Recycle.
// Nothing may use rest afterwards.
func (s *Slab[T]) Give(rest []T) {
	n, end := len(rest), len(s.cur)
	if n > 0 && n <= end && &rest[n-1] == &s.cur[end-1] {
		s.cur = s.cur[:end-n]
		s.total -= n
	}
}

// Reserve sets the size of the first chunk of a slab that has none yet.
func (s *Slab[T]) Reserve(n int) {
	if cap(s.cur) == 0 {
		s.hint = n
	}
}

// Recycle empties the slab. What was carved is cleared, so the slab keeps
// nothing it referenced alive, or with scrub overwritten with garbage. A
// slab that grew past one chunk is then consolidated into one chunk
// holding everything carved since the last recycle.
func (s *Slab[T]) Recycle(scrub bool, garbage T) {
	for _, c := range s.full {
		wipe(c, scrub, garbage)
	}
	wipe(s.cur, scrub, garbage)
	if len(s.full) > 0 {
		clear(s.full)
		s.full = s.full[:0]
		s.cur = make([]T, 0, s.total)
	}
	s.cur = s.cur[:0]
	s.total, s.hint = 0, 0
}

// wipe clears c, or with scrub fills it with garbage.
func wipe[T any](c []T, scrub bool, garbage T) {
	if !scrub {
		clear(c)
		return
	}
	for i := range c {
		c[i] = garbage
	}
}
