package slices

import (
	"firmres/internal/facts"
	"firmres/internal/slab"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the slices cut from the trees of
// its program, in the store's slices slot: the slice lists and their
// steps. Trees are sliced concurrently, one worker per tree, and each
// tree carves its list and its steps in one piece each.
type store struct {
	lists slab.Slab[Slice]
	steps slab.Slab[Step]
}

// storeOf returns the store m's facts store keeps in its slices slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotSlices, facts.Reuse[store]).(*store)
}

// Recycle implements facts.Scratch.
func (st *store) Recycle(scrub bool) {
	st.lists.Recycle(scrub, Slice{PathID: -1, PathHash: 0xdeadbeefdeadbeef, KeyHint: "scrubbed"})
	st.steps.Recycle(scrub, Step{OpIdx: -1})
}
