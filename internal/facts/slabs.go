package facts

import (
	"firmres/internal/cfg"
	"firmres/internal/slab"
)

// slabs is the storage a store's per-function artifacts are carved from:
// one slab per element type, which taint and lint workers building the
// artifacts of different functions carve from at once. It is the
// cfg.Alloc every in-place build of the store receives. A slab never
// moves while slices into it are live, so a set's slabs keep about what
// its largest program needed, not the largest function each handle ever
// held.
type slabs struct {
	blocks slab.Slab[cfg.Block]
	ints   slab.Slab[int]
	int32s slab.Slab[int32]
	words  slab.Slab[uint64]
}

func (s *slabs) Blocks(n int) []cfg.Block { return s.blocks.Take(n) }
func (s *slabs) Ints(n int) []int         { return s.ints.Take(n) }
func (s *slabs) Int32s(n int) []int32     { return s.int32s.Take(n) }
func (s *slabs) Words(n int) []uint64     { return s.words.Take(n) }

// recycle empties every slab for the set's next program, consolidating
// each into one chunk; with scrub, every chunk is overwritten with garbage
// first.
func (s *slabs) recycle(scrub bool) {
	s.blocks.Recycle(scrub, cfg.Block{ID: -1, Start: -1, End: -1})
	s.ints.Recycle(scrub, -0x21524111)
	s.int32s.Recycle(scrub, -0x21524111)
	s.words.Recycle(scrub, 0xdeadbeefdeadbeef)
}
