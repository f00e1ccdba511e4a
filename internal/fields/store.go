package fields

import (
	"sync"

	"firmres/internal/facts"
	"firmres/internal/slab"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the messages built from the trees
// of its program, in the store's fields slot: the messages and their
// field lists. Messages are built concurrently, one worker per tree, and
// each takes the lock once for its message and once for its fields.
type store struct {
	mu     sync.Mutex
	msgs   slab.Slab[Message]
	fields slab.Slab[Field]
}

// storeOf returns the store m's facts store keeps in its fields slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotFields, readyStore).(*store)
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
	st.msgs.Recycle(scrub, Message{Deliver: "scrubbed", Body: "scrubbed", Discarded: true, Reason: "scrubbed"})
	st.fields.Recycle(scrub, Field{Key: "scrubbed", Semantics: "scrubbed", Value: "scrubbed"})
}

// message carves one message.
func (st *store) message() *Message {
	st.mu.Lock()
	defer st.mu.Unlock()
	return &st.msgs.Take(1)[0]
}

// fieldList carves a list of n fields.
func (st *store) fieldList(n int) []Field {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.fields.Take(n)
}
