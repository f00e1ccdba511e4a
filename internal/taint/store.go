package taint

import (
	"sync"

	"firmres/internal/facts"
	"firmres/internal/slab"
)

// trees is the storage a set keeps for the MFTs traced through its store,
// in the store's taint slot: the nodes, their child lists, the MFTs and
// the lists that hold them, carved from slabs and recycled with the set,
// and the idle tracers whose visited maps and stacks the next trace
// reuses. Sites are traced concurrently, so a tracer claims nodes and
// child-list slots in runs under the lock and hands back what it leaves
// of them when its site is done; one worker wastes nothing.
type trees struct {
	mu    sync.Mutex
	nodes slab.Slab[Node]
	kids  slab.Slab[*Node]
	mfts  slab.Slab[MFT]
	lists slab.Slab[*MFT] // each site's MFTs, and all of them in program order
	sites slab.Slab[site]
	idle  []*tracer
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
	return fx.Scratch(facts.SlotTaint, readyTrees).(*trees)
}

// readyTrees returns the trees a set kept from an earlier program, or
// new ones.
func readyTrees(_ *facts.Program, old facts.Scratch) facts.Scratch {
	if t, ok := old.(*trees); ok {
		return t
	}
	return new(trees)
}

// Recycle implements facts.Scratch.
func (t *trees) Recycle(scrub bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes.Recycle(scrub, scrubbed)
	t.kids.Recycle(scrub, &scrubbed)
	t.mfts.Recycle(scrub, MFT{Deliver: "scrubbed", Root: &scrubbed})
	t.lists.Recycle(scrub, nil)
	t.sites.Recycle(scrub, site{})
	for _, tr := range t.idle {
		clear(tr.stack[:cap(tr.stack)])
	}
}

// mftList carves a list of n MFT pointers.
func (t *trees) mftList(n int) []*MFT {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lists.Take(n)
}

// mft carves one MFT.
func (t *trees) mft() *MFT {
	t.mu.Lock()
	defer t.mu.Unlock()
	return &t.mfts.Take(1)[0]
}

// siteList carves a list of n delivery sites.
func (t *trees) siteList(n int) []site {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sites.Take(n)
}

// tracer returns an idle tracer, or a new one, to trace one site with e.
func (t *trees) tracer(e *Engine) *tracer {
	t.mu.Lock()
	var tr *tracer
	if n := len(t.idle); n > 0 {
		tr = t.idle[n-1]
		t.idle = t.idle[:n-1]
	}
	t.mu.Unlock()
	if tr == nil {
		tr = &tracer{store: t, visited: make(map[traceKey]bool)}
	}
	tr.e = e
	tr.nodeRun, tr.kidRun = minRun, minRun
	return tr
}

// done takes back a tracer whose site is traced, with what is left of
// its runs.
func (t *trees) done(tr *tracer) {
	tr.e = nil
	tr.stack = tr.stack[:0]
	clear(tr.visited)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes.Give(tr.nodes)
	t.kids.Give(tr.kids)
	tr.nodes, tr.kids = nil, nil
	t.idle = append(t.idle, tr)
}

// claim hands back rest, what is left of a run, and claims a run of at
// least n elements and at most max(n, run).
func claim[T any](mu *sync.Mutex, s *slab.Slab[T], rest []T, n, run int) []T {
	mu.Lock()
	defer mu.Unlock()
	s.Give(rest)
	return s.TakeRun(n, run)
}
