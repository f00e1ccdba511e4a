// Package mft implements the Message Field Tree transformations of paper
// §IV-C/§IV-D: path enumeration and hashing (for field grouping),
// simplification (keep only branching nodes and leaves, Fig. 5), inversion
// (recover field concatenation order from the backward-built tree), and
// message splitting at wrapper forks.
package mft

import (
	"strconv"

	"firmres/internal/taint"
)

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
}

// Simplify builds the simplified tree of m: only the root, branching nodes
// (more than one child), structural markers (delivery arguments, sprintf/
// JSON construction steps), and leaves are kept; chains of single-child
// bookkeeping nodes are collapsed (Fig. 5 "removing the nodes that are
// irrelevant to field concatenation").
func Simplify(m *taint.MFT) *Tree {
	if m.Root == nil {
		return &Tree{Source: m}
	}
	return &Tree{Source: m, Root: simplifyNode(m.Root)}
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

func simplifyNode(n *taint.Node) *SNode {
	// Collapse single-child non-structural chains.
	cur := n
	for !cur.Leaf() && !structural(cur) && len(cur.Children) == 1 {
		cur = cur.Children[0]
	}
	out := &SNode{Orig: cur}
	if cur.Leaf() {
		return out
	}
	if !structural(cur) && len(cur.Children) == 0 {
		// Dead interior node (budget-truncated trace): keep as-is.
		return out
	}
	for _, c := range cur.Children {
		out.Children = append(out.Children, simplifyNode(c))
	}
	return out
}

// Invert reverses the child order at every node. The MFT is built by
// backward taint analysis, so "early tagged fields are concatenated later
// into the message" (§IV-D); inversion recovers the true field order.
func (t *Tree) Invert() {
	invert(t.Root)
	t.Inverted = !t.Inverted
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

// Paths enumerates and numbers the root-to-leaf paths.
func (t *Tree) Paths() []Path {
	var out []Path
	var cur []*SNode
	var rec func(n *SNode)
	rec = func(n *SNode) {
		cur = append(cur, n)
		if len(n.Children) == 0 {
			if n.Leaf() {
				nodes := make([]*SNode, len(cur))
				copy(nodes, cur)
				out = append(out, Path{ID: len(out), Hash: hashPath(nodes), Nodes: nodes})
			}
		} else {
			for _, c := range n.Children {
				rec(c)
			}
		}
		cur = cur[:len(cur)-1]
	}
	if t.Root != nil {
		rec(t.Root)
	}
	return out
}

// FNV-1a parameters (matching hash/fnv's 64-bit variant); the hash is
// inlined so hashing a path allocates nothing beyond its labels.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

func hashPath(nodes []*SNode) uint64 {
	h := uint64(fnvOffset64)
	var buf [20]byte
	for _, n := range nodes {
		h = fnvString(h, n.Orig.Label())
		h ^= 0
		h *= fnvPrime64
		for _, c := range strconv.AppendInt(buf[:0], int64(n.Orig.OpIdx), 10) {
			h ^= uint64(c)
			h *= fnvPrime64
		}
		h ^= 1
		h *= fnvPrime64
	}
	return h
}

// Split divides an MFT into one MFT per message-construction context. A
// wrapper function called from several places produces a tree whose payload
// argument fans out into one NodeParam subtree per caller; each fan-out arm
// is a distinct device-cloud message.
func Split(m *taint.MFT) []*taint.MFT {
	if m.Root == nil {
		return []*taint.MFT{m}
	}
	// Find the fan-out: an arg node whose children are all NodeParam nodes
	// from more than one distinct caller.
	for argIdx, arg := range m.Root.Children {
		if arg.Kind != taint.NodeArg || len(arg.Children) < 2 {
			continue
		}
		callers := map[string]bool{}
		allParams := true
		for _, c := range arg.Children {
			if c.Kind != taint.NodeParam || len(c.Children) == 0 {
				allParams = false
				break
			}
			callers[callerName(c)] = true
		}
		if !allParams || len(callers) < 2 {
			continue
		}
		var out []*taint.MFT
		for _, c := range arg.Children {
			clone := *m
			root := *m.Root
			children := make([]*taint.Node, len(m.Root.Children))
			copy(children, m.Root.Children)
			argClone := *arg
			argClone.Children = []*taint.Node{c}
			children[argIdx] = &argClone
			root.Children = children
			clone.Root = &root
			clone.Context = callerName(c)
			out = append(out, &clone)
		}
		return out
	}
	return []*taint.MFT{m}
}

// callerName recovers the caller function of a NodeParam arm.
func callerName(param *taint.Node) string {
	if len(param.Children) > 0 && param.Children[0].Fn != nil {
		return param.Children[0].Fn.Name()
	}
	return ""
}
