package core

import (
	"firmres/internal/facts"
	"firmres/internal/fields"
	"firmres/internal/slab"
)

// store is the storage a set keeps for the per-message lists the pipeline
// builds over its program, in the store's core slot: every tree's
// slice-info list and the message results. Trees are classified
// concurrently, one worker per tree, and each tree carves its list in one
// piece.
type store struct {
	infos   slab.Slab[fields.SliceInfo]
	results slab.Slab[MessageResult]
}

// storeOf returns the store fx keeps in its core slot, or fresh storage
// of its own without a store.
func storeOf(fx *facts.Program) *store {
	if fx == nil {
		return new(store)
	}
	return fx.Scratch(facts.SlotCore, facts.Reuse[store]).(*store)
}

// Recycle implements facts.Scratch.
func (st *store) Recycle(scrub bool) {
	st.infos.Recycle(scrub, fields.SliceInfo{Label: "scrubbed", Confidence: -1})
	st.results.Recycle(scrub, MessageResult{Message: &scrubbedMessage})
}

// scrubbedMessage is the message of every result a scrubbed release
// leaves.
var scrubbedMessage = fields.Message{Function: "scrubbed", Deliver: "scrubbed", Body: "scrubbed"}

// infoList carves a list of n slice infos, nil for none.
func (st *store) infoList(n int) []fields.SliceInfo {
	if n == 0 {
		return nil
	}
	return st.infos.Take(n)
}

// resultList carves a list of n message results, nil for none.
func (st *store) resultList(n int) []MessageResult {
	if n == 0 {
		return nil
	}
	return st.results.Take(n)
}
