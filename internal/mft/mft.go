// Package mft implements the Message Field Tree transformations of paper
// §IV-C/§IV-D: path enumeration and hashing (for field grouping),
// simplification (keep only branching nodes and leaves, Fig. 5), inversion
// (recover field concatenation order from the backward-built tree), and
// message splitting at wrapper forks.
package mft

import (
	"slices"
	"strconv"

	"firmres/internal/taint"
)

// A tree's storage — the Tree, its SNodes and child lists, its path list
// and the nodes of every path, and the MFTs Split makes — is carved from
// the store the tree's MFT was traced through (MFT.Facts), in its trees
// slot (store.go), so it lives as long as that store's set.

// SNode is a node of the simplified tree. It references the original MFT
// node so downstream stages keep full context.
type SNode struct {
	Orig     *taint.Node
	Children []*SNode
}

// Leaf reports whether the node is a field source.
func (n *SNode) Leaf() bool { return n.Orig != nil && n.Orig.Leaf() }

// Walk visits the subtree in depth-first pre-order.
func (n *SNode) Walk(visit func(*SNode)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Leaves returns the leaves in child order.
func (n *SNode) Leaves() []*SNode {
	var out []*SNode
	n.Walk(func(m *SNode) {
		if m.Leaf() {
			out = append(out, m)
		}
	})
	return out
}

// Size returns the node count of the subtree.
func (n *SNode) Size() int {
	count := 0
	n.Walk(func(*SNode) { count++ })
	return count
}

// Tree is a simplified (and possibly inverted) view of one MFT.
type Tree struct {
	Source   *taint.MFT
	Root     *SNode
	Inverted bool

	paths []Path // root-to-leaf paths, listed by the first Paths call
}

// Simplify builds the simplified tree of m: only the root, branching nodes
// (more than one child), structural markers (delivery arguments, sprintf/
// JSON construction steps), and leaves are kept; chains of single-child
// bookkeeping nodes are collapsed (Fig. 5 "removing the nodes that are
// irrelevant to field concatenation"). A counting walk sizes the tree, so
// its nodes and its child lists are carved in one piece each.
func Simplify(m *taint.MFT) *Tree {
	var c simpleCount
	if m.Root != nil {
		c.walk(m.Root)
	}
	t, b := storeOf(m).tree(c)
	t.Source = m
	if m.Root != nil {
		t.Root = b.node(m.Root)
	}
	return t
}

// structural reports whether a node must survive simplification even with a
// single child: these carry concatenation semantics (field boundaries).
func structural(n *taint.Node) bool {
	switch n.Kind {
	case taint.NodeRoot, taint.NodeArg, taint.NodeJSON:
		return true
	case taint.NodeCall:
		// Writer calls define concatenation units; keep the ones carrying a
		// format string or a JSON key.
		return n.Format != "" || n.Key != ""
	case taint.NodeOp:
		// Raw memory writes must stay visible: the renderer excludes their
		// binary content from the textual message.
		return n.Callee == "STORE"
	}
	return false
}

// collapse follows a chain of single-child non-structural nodes from n
// to the node the simplified tree keeps for it.
func collapse(n *taint.Node) *taint.Node {
	for !n.Leaf() && !structural(n) && len(n.Children) == 1 {
		n = n.Children[0]
	}
	return n
}

// kept reports whether the simplified tree keeps the children of n, a
// collapsed node: a leaf, or a dead interior node (budget-truncated
// trace), is kept as-is.
func kept(n *taint.Node) bool { return !n.Leaf() && len(n.Children) > 0 }

// simpleCount sizes a simplified tree: its nodes and child-list slots.
type simpleCount struct{ nodes, kids int }

func (c *simpleCount) walk(n *taint.Node) {
	n = collapse(n)
	c.nodes++
	if !kept(n) {
		return
	}
	c.kids += len(n.Children)
	for _, ch := range n.Children {
		c.walk(ch)
	}
}

// simplifier hands out the nodes and child-list slots a simpleCount
// sized, in the order the build walk takes them.
type simplifier struct {
	nodes []SNode
	kids  []*SNode
}

func (b *simplifier) node(n *taint.Node) *SNode {
	n = collapse(n)
	out := &b.nodes[0]
	b.nodes = b.nodes[1:]
	out.Orig = n
	if !kept(n) {
		return out
	}
	k := len(n.Children)
	out.Children = b.kids[:k:k]
	b.kids = b.kids[k:]
	for i, c := range n.Children {
		out.Children[i] = b.node(c)
	}
	return out
}

// Invert reverses the child order at every node. The MFT is built by
// backward taint analysis, so "early tagged fields are concatenated later
// into the message" (§IV-D); inversion recovers the true field order.
// Reversing every node's children reverses the depth-first order of the
// leaves, so a path list already enumerated is reversed and renumbered in
// place and stays equal to a fresh enumeration of the inverted tree.
func (t *Tree) Invert() {
	invert(t.Root)
	t.Inverted = !t.Inverted
	slices.Reverse(t.paths)
	for i := range t.paths {
		t.paths[i].ID = i
	}
}

func invert(n *SNode) {
	if n == nil {
		return
	}
	for i, j := 0, len(n.Children)-1; i < j; i, j = i+1, j-1 {
		n.Children[i], n.Children[j] = n.Children[j], n.Children[i]
	}
	for _, c := range n.Children {
		invert(c)
	}
}

// Path is one root-to-leaf path of a simplified tree.
type Path struct {
	ID    int    // sequential number within the tree (§IV-D "numbers each path")
	Hash  uint64 // FNV-1a over the node labels (§IV-D "assigns a hash value")
	Nodes []*SNode
}

// Leaf returns the path's terminal node.
func (p Path) Leaf() *SNode { return p.Nodes[len(p.Nodes)-1] }

// Paths returns the root-to-leaf paths, numbered in depth-first order.
// The first call enumerates and hashes them; later calls return the same
// list, which Invert keeps in step with the child order. The list and
// every path's Nodes are shared with the tree: callers must not modify
// them. Like Invert, Paths is for one goroutine at a time.
func (t *Tree) Paths() []Path {
	if t.paths == nil && t.Root != nil {
		t.paths = listPaths(storeOf(t.Source), t.Root)
	}
	return t.paths
}

// pathCount sizes a tree's path list: the paths, the nodes over all of
// them, and the deepest node.
type pathCount struct{ paths, nodes, depth int }

func (c *pathCount) walk(n *SNode, depth int) {
	c.depth = max(c.depth, depth)
	if len(n.Children) == 0 {
		if n.Leaf() {
			c.paths++
			c.nodes += depth
		}
		return
	}
	for _, ch := range n.Children {
		c.walk(ch, depth+1)
	}
}

// pathLister fills a presized path list in one depth-first walk, carrying
// each path's FNV-1a hash down from the root so every node is hashed once
// per visit.
type pathLister struct {
	paths []Path
	nodes []*SNode // backing array of every path's Nodes
	stack []*SNode // root to the current node
	buf   []byte   // one node's hashed bytes
}

// listPaths enumerates, numbers and hashes the paths under root, in a
// list and one backing array carved from st. Every path's Nodes is a
// capacity-clamped window of the backing array, whose tail holds the
// walk's stack.
func listPaths(st *store, root *SNode) []Path {
	var c pathCount
	c.walk(root, 1)
	if c.paths == 0 {
		return nil
	}
	paths, backing := st.paths.Take(c.paths), st.ptrs.Take(c.nodes+c.depth)
	var buf [64]byte
	l := pathLister{
		paths: paths[:0],
		nodes: backing[:0:c.nodes],
		stack: backing[c.nodes:c.nodes],
		buf:   buf[:0],
	}
	l.walk(root, fnvOffset64)
	return l.paths
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// walk folds n into the hash h of the path so far: its label, a 0 byte,
// its op index in decimal and a 1 byte (§IV-D "assigns a hash value").
func (l *pathLister) walk(n *SNode, h uint64) {
	l.stack = append(l.stack, n)
	l.buf = append(n.Orig.AppendLabel(l.buf[:0]), 0)
	l.buf = append(strconv.AppendInt(l.buf, int64(n.Orig.OpIdx), 10), 1)
	for _, b := range l.buf {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	if len(n.Children) == 0 {
		if n.Leaf() {
			lo := len(l.nodes)
			l.nodes = append(l.nodes, l.stack...)
			hi := len(l.nodes)
			l.paths = append(l.paths, Path{ID: len(l.paths), Hash: h, Nodes: l.nodes[lo:hi:hi]})
		}
	} else {
		for _, c := range n.Children {
			l.walk(c, h)
		}
	}
	l.stack = l.stack[:len(l.stack)-1]
}

// Split divides an MFT into one MFT per message-construction context. A
// wrapper function called from several places produces a tree whose payload
// argument fans out into one NodeParam subtree per caller; each fan-out arm
// is a distinct device-cloud message. The returned list, and every clone
// with its copied root and argument nodes, is carved from the store m was
// traced through.
func Split(m *taint.MFT) []*taint.MFT {
	st := storeOf(m)
	if m.Root == nil {
		return st.one(m)
	}
	// Find the fan-out: an arg node whose children are all NodeParam nodes
	// from more than one distinct caller.
	for argIdx, arg := range m.Root.Children {
		if arg.Kind != taint.NodeArg || len(arg.Children) < 2 || !fansOut(arg) {
			continue
		}
		// Each clone gets a root and an argument node of its own, and one
		// run of width+1 child slots: the root's children, then the
		// argument's one.
		k, width := len(arg.Children), len(m.Root.Children)
		list, clones := st.lists.Take(k), st.mfts.Take(k)
		nodes, slots := st.tnode.Take(2*k), st.tptrs.Take(k*(width+1))
		for i, c := range arg.Children {
			root, argClone := &nodes[2*i], &nodes[2*i+1]
			*root, *argClone = *m.Root, *arg
			kids := slots[i*(width+1) : (i+1)*(width+1) : (i+1)*(width+1)]
			root.Children = kids[:width:width]
			copy(root.Children, m.Root.Children)
			root.Children[argIdx] = argClone
			argClone.Children = kids[width:]
			argClone.Children[0] = c
			clone := &clones[i]
			*clone = *m
			clone.Root, clone.Context = root, callerName(c)
			list[i] = clone
		}
		return list
	}
	return st.one(m)
}

// fansOut reports whether the children of arg are all NodeParam arms with
// a subtree, of more than one distinct caller.
func fansOut(arg *taint.Node) bool {
	distinct := false
	for i, c := range arg.Children {
		if c.Kind != taint.NodeParam || len(c.Children) == 0 {
			return false
		}
		if i > 0 && callerName(c) != callerName(arg.Children[0]) {
			distinct = true
		}
	}
	return distinct
}

// callerName recovers the caller function of a NodeParam arm.
func callerName(param *taint.Node) string {
	if len(param.Children) > 0 && param.Children[0].Fn != nil {
		return param.Children[0].Fn.Name()
	}
	return ""
}
