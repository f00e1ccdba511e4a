package taint

import (
	"firmres/internal/facts"
	"firmres/internal/parallel"
	"firmres/internal/slab"
)

// trees is the storage a set keeps for the MFTs traced through its store,
// in the store's taint slot: the nodes, their child lists, the MFTs and
// the lists that hold them, carved from slabs and recycled with the set,
// and the idle tracers whose visited maps and stacks the next trace
// reuses. Sites are traced concurrently, so a tracer claims nodes and
// child-list slots in runs and hands back what it leaves of them when its
// site is done; one worker wastes nothing.
type trees struct {
	nodes slab.Slab[Node]
	kids  slab.Slab[*Node]
	mfts  slab.Slab[MFT]
	lists slab.Slab[*MFT] // each site's MFTs, and all of them in program order
	sites slab.Slab[site]
	idle  parallel.FreeList[*tracer]
}

// Run sizes: a tracer's first claim of nodes or child-list slots is
// minRun elements, and each further claim for the same site doubles, up
// to maxRun.
const (
	minRun = 16
	maxRun = 64
)

// scrubbed is what a scrubbed release leaves in every node and child
// list: a plausible leaf that names nothing of the program.
var scrubbed = Node{Kind: LeafString, OpIdx: -1, StrVal: "scrubbed"}

// treesOf returns the trees the store fx keeps in its taint slot.
func treesOf(fx *facts.Program) *trees {
	return fx.Scratch(facts.SlotTaint, facts.Reuse[trees]).(*trees)
}

// Recycle implements facts.Scratch.
func (t *trees) Recycle(scrub bool) {
	t.nodes.Recycle(scrub, scrubbed)
	t.kids.Recycle(scrub, &scrubbed)
	t.mfts.Recycle(scrub, MFT{Deliver: "scrubbed", Root: &scrubbed})
	t.lists.Recycle(scrub, nil)
	t.sites.Recycle(scrub, site{})
}

// tracer returns an idle tracer, or a new one, to trace one site with e.
func (t *trees) tracer(e *Engine) *tracer {
	tr, ok := t.idle.Get()
	if !ok {
		tr = &tracer{store: t, visited: make(map[traceKey]bool)}
	}
	tr.e = e
	tr.nodeRun, tr.kidRun = minRun, minRun
	return tr
}

// done takes back a tracer whose site is traced, with what is left of
// its runs. Its stack is cleared, so an idle tracer pins no node.
func (t *trees) done(tr *tracer) {
	tr.e = nil
	clear(tr.stack[:cap(tr.stack)])
	tr.stack = tr.stack[:0]
	clear(tr.visited)
	t.nodes.Give(tr.nodes)
	t.kids.Give(tr.kids)
	tr.nodes, tr.kids = nil, nil
	t.idle.Put(tr)
}
