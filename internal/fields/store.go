package fields

import (
	"firmres/internal/facts"
	"firmres/internal/slab"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the messages built from the trees
// of its program, in the store's fields slot: the messages and their
// field lists. Messages are built concurrently, one worker per tree, and
// each carves its message and its field list in one piece each.
type store struct {
	msgs   slab.Slab[Message]
	fields slab.Slab[Field]
}

// storeOf returns the store m's facts store keeps in its fields slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotFields, facts.Reuse[store]).(*store)
}

// Recycle implements facts.Scratch.
func (st *store) Recycle(scrub bool) {
	st.msgs.Recycle(scrub, Message{Deliver: "scrubbed", Body: "scrubbed", Discarded: true, Reason: "scrubbed"})
	st.fields.Recycle(scrub, Field{Key: "scrubbed", Semantics: "scrubbed", Value: "scrubbed"})
}
