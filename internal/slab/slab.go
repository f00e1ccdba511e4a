// Package slab is the one allocator of everything a set keeps for its
// program (see internal/facts): the lifted program's ops, inputs, call
// targets and tables, every facts artifact, and the message trees, slices
// and fields the layers above carve into their scratch.
//
// A slab is sized by what its set served, never by a guess: a cold slab
// grows by whole chunks from what its first pieces asked for, and a
// release consolidates what the program carved into one chunk, which the
// set keeps for its next program. So a set holds about what its largest
// program needed.
//
// A slab guards itself: every method takes its lock, so the workers of
// one analysis carve from the slabs of their set at once, and no layer
// wraps a slab in a lock of its own.
package slab

import "sync"

// Slab is chunked storage of T. A chunk never moves: when the current one
// is full, Take starts a new one, as large as everything carved so far,
// and keeps the full ones, which carved slices still reference, until
// Recycle consolidates them into one chunk. A Slab is safe for concurrent
// use; workers that carve many small pieces concurrently claim runs of
// elements at a time (Claim), and hand back the unused end of their last
// run (Give). The zero Slab is empty and ready to use. A Slab must not be
// copied after first use.
type Slab[T any] struct {
	mu    sync.Mutex
	cur   []T   // the chunk being carved: its length is what is carved
	full  [][]T // the chunks filled before cur
	total int   // elements carved since the last recycle
}

// Take carves n zeroed elements, capacity-clamped so nothing can append
// through into a neighbour.
func (s *Slab[T]) Take(n int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.take(n)
}

// Claim hands back rest, the unused end of the last run claimed (see
// Give), and carves the next run: at least n elements and at most
// max(n, run), what the current chunk has left, up to that, when it is at
// least n, or else a full run from a new chunk. So a run starts a new
// chunk only once the current one cannot serve the piece it is claimed
// for, and one worker claiming alone wastes nothing.
func (s *Slab[T]) Claim(rest []T, n, run int) []T {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.give(rest)
	want := max(n, run)
	if left := cap(s.cur) - len(s.cur); left >= n {
		want = min(want, left)
	}
	return s.take(want)
}

// Give hands back rest, the unused end of a run carved from s, when
// nothing has been carved after it; otherwise rest stays carved until
// Recycle. Nothing may use rest afterwards.
func (s *Slab[T]) Give(rest []T) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.give(rest)
}

// Recycle empties the slab. What was carved is cleared, so the slab keeps
// nothing it referenced alive, or with scrub overwritten with garbage. A
// slab that grew past one chunk is then consolidated into one chunk
// holding everything carved since the last recycle.
func (s *Slab[T]) Recycle(scrub bool, garbage T) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
	s.total = 0
}

// take is Take under s.mu.
func (s *Slab[T]) take(n int) []T {
	if len(s.cur)+n > cap(s.cur) {
		if cap(s.cur) > 0 {
			s.full = append(s.full, s.cur)
		}
		s.cur = make([]T, 0, max(n, s.total))
	}
	i := len(s.cur)
	s.cur = s.cur[:i+n]
	out := s.cur[i : i+n : i+n]
	clear(out)
	s.total += n
	return out
}

// give is Give under s.mu.
func (s *Slab[T]) give(rest []T) {
	n, end := len(rest), len(s.cur)
	if n > 0 && n <= end && &rest[n-1] == &s.cur[end-1] {
		s.cur = s.cur[:end-n]
		s.total -= n
	}
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
