package slices

import (
	"sync"

	"firmres/internal/facts"
	"firmres/internal/slab"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the slices cut from the trees of
// its program, in the store's slices slot: the slice lists and their
// steps. Trees are sliced concurrently, one worker per tree, and each
// tree carves what it needs in one claim under the lock.
type store struct {
	mu    sync.Mutex
	lists slab.Slab[Slice]
	steps slab.Slab[Step]
}

// storeOf returns the store m's facts store keeps in its slices slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotSlices, readyStore).(*store)
}

// readyStore returns the store a set kept from an earlier program, or a
// new one.
func readyStore(_ *facts.Program, old facts.Scratch) facts.Scratch {
	if st, ok := old.(*store); ok {
		return st
	}
	return new(store)
}

// Recycle implements facts.Scratch.
func (st *store) Recycle(scrub bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.lists.Recycle(scrub, Slice{PathID: -1, PathHash: 0xdeadbeefdeadbeef, KeyHint: "scrubbed"})
	st.steps.Recycle(scrub, Step{OpIdx: -1})
}

// slices carves a list of n slices and steps steps.
func (st *store) slices(n, steps int) ([]Slice, []Step) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lists.Take(n), st.steps.Take(steps)
}
