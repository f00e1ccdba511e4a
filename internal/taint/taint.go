// Package taint implements FIRMRES's backward static taint analysis
// (paper §IV-B) and produces Message Field Trees (§IV-C).
//
// Taint sources are the message arguments at the callsites of delivery
// functions (SSL_write, curl_easy_perform, mosquitto_publish, ...). Taint
// sinks are the potential sources of message fields: constants from the
// data segment, values read from NVRAM or configuration files, and
// front-end/environment variables. The engine walks use-def chains
// backwards — across callers when the traced value is a parameter, and into
// callees when it is a return value — applying function summaries for
// library calls, and records the traversal as a tree: the Message Field
// Tree (MFT), whose root is the message argument and whose leaves are the
// field sources.
package taint

import (
	"fmt"
	"strconv"

	"firmres/internal/facts"
	"firmres/internal/pcode"
)

// NodeKind classifies MFT nodes.
type NodeKind uint8

// MFT node kinds. Leaf kinds are the "single-information-source" sinks of
// §IV-B; interior kinds record the message-construction step the value
// flowed through.
const (
	NodeRoot   NodeKind = iota + 1 // the delivery callsite's message argument
	NodeArg                        // one traced argument of the delivery call (topic, payload, ...)
	NodeOp                         // an intermediate P-Code operation
	NodeCall                       // a library call applied to the value (sprintf, strcat, cJSON_*, ...)
	NodeReturn                     // value crossed into a callee through its return
	NodeParam                      // value crossed into a caller through a parameter
	NodeJSON                       // a cJSON object whose children are key/value additions

	LeafString  // string constant from the data segment
	LeafNumeric // numeric constant
	LeafNVRAM   // value read from NVRAM
	LeafConfig  // value read from a configuration store
	LeafEnv     // environment / front-end input
	LeafFile    // content read from a file path (Dev-Secret pattern 2)
	LeafDynamic // runtime-generated value (time, rand)
	LeafUnknown // over-taint fallback: source could not be classified
)

var nodeKindNames = map[NodeKind]string{
	NodeRoot: "root", NodeArg: "arg", NodeOp: "op", NodeCall: "call",
	NodeReturn: "return", NodeParam: "param", NodeJSON: "json",
	LeafString: "const-string", LeafNumeric: "const-numeric",
	LeafNVRAM: "nvram", LeafConfig: "config", LeafEnv: "env",
	LeafFile: "file", LeafDynamic: "dynamic", LeafUnknown: "unknown",
}

// String returns a stable name for the kind.
func (k NodeKind) String() string {
	if s, ok := nodeKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind?%d", uint8(k))
}

// IsLeaf reports whether the kind is a taint sink.
func (k NodeKind) IsLeaf() bool { return k >= LeafString }

// Node is one MFT node.
type Node struct {
	Kind     NodeKind
	Fn       *pcode.Function // function containing the step (nil for roots)
	OpIdx    int             // op index of the step within Fn
	Callee   string          // call name for NodeCall / NodeReturn
	ArgLabel string          // role of a NodeArg child ("payload", "topic", "path", ...)
	Format   string          // resolved format string for sprintf-family calls
	StrVal   string          // content for LeafString
	ConstVal uint64          // value for LeafNumeric
	Key      string          // key/path for LeafNVRAM/LeafConfig/LeafEnv/LeafFile
	Children []*Node
}

// Leaf reports whether the node is a taint sink.
func (n *Node) Leaf() bool { return n.Kind.IsLeaf() }

// Walk visits the subtree rooted at n in depth-first pre-order.
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	visit(n)
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Leaves returns the leaf nodes of the subtree in left-to-right order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.Leaf() {
			out = append(out, m)
		}
	})
	return out
}

// Size returns the number of nodes in the subtree.
func (n *Node) Size() int {
	count := 0
	n.Walk(func(*Node) { count++ })
	return count
}

// Label renders a short human-readable description of the node. It runs
// for every node of every path during path hashing, so the renderings are
// plain concatenations (output identical to the earlier fmt forms).
func (n *Node) Label() string {
	switch n.Kind {
	case NodeCall, NodeReturn:
		return n.Kind.String() + "(" + n.Callee + ")"
	case NodeArg:
		return "arg(" + n.ArgLabel + ")"
	case LeafString:
		return strconv.Quote(n.StrVal)
	case LeafNumeric:
		return "0x" + strconv.FormatUint(n.ConstVal, 16)
	case LeafNVRAM, LeafConfig, LeafEnv, LeafFile:
		return n.Kind.String() + "[" + n.Key + "]"
	default:
		return n.Kind.String()
	}
}

// MFT is one Message Field Tree: the backward dataflow from a delivery
// callsite to the sources of the message fields.
type MFT struct {
	Prog *pcode.Program
	// Facts is the store the tree was traced through. Later stages read
	// the per-function solutions it already holds (semantics enrichment
	// folds operands through its def-use) instead of recomputing them.
	Facts   *facts.Program
	Site    pcode.CallSite // the delivery callsite (taint source)
	Deliver string         // delivery function name (SSL_write, ...)
	Context string         // construction context (caller chain suffix), "" when local
	Root    *Node
}

// Paths enumerates all root-to-leaf paths of the tree, each as the node
// sequence from root to leaf. The per-path code slices of §IV-C and the
// path-hash grouping of §IV-D are computed over these.
func (m *MFT) Paths() [][]*Node {
	var out [][]*Node
	var cur []*Node
	var rec func(n *Node)
	rec = func(n *Node) {
		cur = append(cur, n)
		if len(n.Children) == 0 {
			if n.Leaf() {
				path := make([]*Node, len(cur))
				copy(path, cur)
				out = append(out, path)
			}
		} else {
			for _, c := range n.Children {
				rec(c)
			}
		}
		cur = cur[:len(cur)-1]
	}
	if m.Root != nil {
		rec(m.Root)
	}
	return out
}

// Fields returns the leaves of the tree: the identified message fields.
func (m *MFT) Fields() []*Node {
	if m.Root == nil {
		return nil
	}
	return m.Root.Leaves()
}
