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
	blocks slab[cfg.Block]
	ints   slab[int]
	int32s slab[int32]
	words  slab[uint64]
}

func (s *slabs) Blocks(n int) []cfg.Block {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.blocks.take(n)
}

func (s *slabs) Ints(n int) []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ints.take(n)
}

func (s *slabs) Int32s(n int) []int32 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.int32s.take(n)
}

func (s *slabs) Words(n int) []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.words.take(n)
}

// reserve sizes the first chunk of every cold slab from the program's op
// and location counts, so a cold set does not double its way up from a
// small chunk. The factors cover what a device-cloud executable of the
// crawl set carves once the pipeline has run every stage over it: at most
// 0.09 blocks, 0.33 ints and 2.4 int32s per op, and 6.2 words per
// location.
func (s *slabs) reserve(ops, locs int) {
	s.blocks.reserve(ops / 10)
	s.ints.reserve(2 * ops / 5)
	s.int32s.reserve(5 * ops / 2)
	s.words.reserve(13 * locs / 2)
}

// recycle empties every slab for the set's next program, consolidating
// each into one chunk; with scrub, every chunk is overwritten with garbage
// first.
func (s *slabs) recycle(scrub bool) {
	s.blocks.recycle(scrub, cfg.Block{ID: -1, Start: -1, End: -1})
	s.ints.recycle(scrub, -0x21524111)
	s.int32s.recycle(scrub, -0x21524111)
	s.words.recycle(scrub, 0xdeadbeefdeadbeef)
}

// slab is chunked storage of T. A chunk never moves: when the current one
// is full, take starts a new one, as large as everything carved so far,
// and keeps the full ones, which carved slices still reference, until
// recycle consolidates them into one chunk.
type slab[T any] struct {
	cur   []T   // the chunk being carved: its length is what is carved
	full  [][]T // the chunks filled before cur
	total int   // elements carved since the last recycle
	hint  int   // the size of a cold slab's first chunk
}

// take carves n zeroed elements, capacity-clamped so nothing can append
// through into a neighbour.
func (s *slab[T]) take(n int) []T {
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

// reserve sets the size of the first chunk of a slab that has none yet.
func (s *slab[T]) reserve(n int) {
	if cap(s.cur) == 0 {
		s.hint = n
	}
}

// recycle empties the slab. A slab that grew past one chunk is
// consolidated into one chunk holding everything carved since the last
// recycle.
func (s *slab[T]) recycle(scrub bool, garbage T) {
	if scrub {
		for _, c := range s.full {
			fill(c, garbage)
		}
		fill(s.cur, garbage)
	}
	if len(s.full) > 0 {
		clear(s.full)
		s.full = s.full[:0]
		s.cur = make([]T, 0, s.total)
	}
	s.cur = s.cur[:0]
	s.total, s.hint = 0, 0
}

func fill[T any](s []T, v T) {
	for i := range s {
		s[i] = v
	}
}
