package mft

import (
	"firmres/internal/facts"
	"firmres/internal/slab"
	"firmres/internal/taint"
)

// store is the storage a set keeps for the trees of the MFTs traced
// through its store, in the store's trees slot: the Trees, their SNodes
// and child lists, their path lists and path nodes, and the lists and
// clones Split returns. Trees are simplified and their paths listed
// concurrently, one worker per tree; each tree sizes what it needs first
// and carves it in one piece per slab.
type store struct {
	trees slab.Slab[Tree]
	nodes slab.Slab[SNode]
	ptrs  slab.Slab[*SNode] // child lists, and the nodes of every path
	paths slab.Slab[Path]

	lists slab.Slab[*taint.MFT]
	mfts  slab.Slab[taint.MFT]
	tnode slab.Slab[taint.Node]
	tptrs slab.Slab[*taint.Node]
}

// scrubbed is what a scrubbed release leaves in every simplified node and
// in every list of them: a node standing for no taint node.
var scrubbed = SNode{Orig: &taint.Node{Kind: taint.LeafString, OpIdx: -1, StrVal: "scrubbed"}}

// storeOf returns the store m's facts store keeps in its trees slot, or
// fresh storage of its own for an MFT traced through no store.
func storeOf(m *taint.MFT) *store {
	if m == nil || m.Facts == nil {
		return new(store)
	}
	return m.Facts.Scratch(facts.SlotTrees, facts.Reuse[store]).(*store)
}

// Recycle implements facts.Scratch.
func (st *store) Recycle(scrub bool) {
	st.trees.Recycle(scrub, Tree{Root: &scrubbed, Inverted: true})
	st.nodes.Recycle(scrub, scrubbed)
	st.ptrs.Recycle(scrub, &scrubbed)
	st.paths.Recycle(scrub, Path{ID: -1, Hash: 0xdeadbeefdeadbeef})
	st.lists.Recycle(scrub, nil)
	st.mfts.Recycle(scrub, taint.MFT{Deliver: "scrubbed", Root: scrubbed.Orig})
	st.tnode.Recycle(scrub, *scrubbed.Orig)
	st.tptrs.Recycle(scrub, scrubbed.Orig)
}

// tree carves a Tree and the nodes and child-list slots c counted.
func (st *store) tree(c simpleCount) (*Tree, simplifier) {
	t := &st.trees.Take(1)[0]
	if c.nodes == 0 {
		return t, simplifier{}
	}
	return t, simplifier{nodes: st.nodes.Take(c.nodes), kids: st.ptrs.Take(c.kids)}
}

// one returns a list holding m alone.
func (st *store) one(m *taint.MFT) []*taint.MFT {
	out := st.lists.Take(1)
	out[0] = m
	return out
}
