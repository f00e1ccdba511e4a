package slices

import (
	"sync"

	"firmres/internal/facts"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the slices cut from the trees of
// its program, in the store's slices slot: the slice lists and their
// steps. Trees are sliced concurrently, one worker per tree, and each
// tree carves what it needs in one claim under the lock.
type store struct {
	mu    sync.Mutex
	lists facts.Slab[Slice]
	steps facts.Slab[Step]
}

// storeOf returns the store m's facts store keeps in its slices slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotSlices, readyStore).(*store)
}

// readyStore readies the store a set kept from an earlier program, or a
// new one, for the program of fx. A cold slab's first chunk is sized from
// the program's ops: the crawl set's device-cloud executables cut at most
// 0.18 slices and 0.54 steps per op.
func readyStore(fx *facts.Program, old facts.Scratch) facts.Scratch {
	st, _ := old.(*store)
	if st == nil {
		st = new(store)
	}
	ops := fx.Ops()
	st.lists.Reserve(7 * ops / 40)
	st.steps.Reserve(11 * ops / 20)
	return st
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
