// Package cfg builds intra-procedural control-flow graphs over lifted
// P-Code functions. Blocks are delimited at machine-instruction granularity
// (branch targets are machine addresses) but contain P-Code op index ranges,
// which is what the dataflow and taint layers traverse.
//
// Layout: a graph owns no arrays of its own. Its blocks live in one array,
// every block's Succs and Preds are carved from one edge array, and the
// reverse post-order, with each block's position in it, is computed once
// at build; reachability from the entry and the dominator tree are
// answered from that table. Every array comes from an Alloc: Build takes
// them from the heap, while a facts store builds in place (Init) from the
// slabs of its pooled set, so rebuilding the graphs of a recycled program
// allocates nothing. The dataflow and constprop solvers carve their arrays
// the same way.
package cfg

import (
	"math/bits"
	"slices"
	"sort"

	"firmres/internal/pcode"
)

// Alloc hands out zeroed arrays for in-place builds. An array it hands out
// never moves and stays valid until its owner recycles the whole storage,
// so a build may keep slices into it. Implementations used by concurrent
// builds must be safe for concurrent use.
type Alloc interface {
	Blocks(n int) []Block
	Ints(n int) []int
	Int32s(n int) []int32
	Words(n int) []uint64
}

// Heap is the Alloc that allocates every array on the heap: a build
// through it owns its storage.
type Heap struct{}

func (Heap) Blocks(n int) []Block { return make([]Block, n) }
func (Heap) Ints(n int) []int     { return make([]int, n) }
func (Heap) Int32s(n int) []int32 { return make([]int32, n) }
func (Heap) Words(n int) []uint64 { return make([]uint64, n) }

// Block is one basic block: the half-open op range [Start, End) plus edges.
type Block struct {
	ID    int
	Start int // index of first op in the block
	End   int // index one past the last op
	Succs []int
	Preds []int
}

// Graph is the CFG of one function.
type Graph struct {
	Fn     *pcode.Function
	Blocks []Block // in op order: block i covers the ops [Start, End) right after block i-1
	rpo    []int   // block IDs in reverse post-order, unreachable ones last
	rpoNum []int32 // block ID -> position in rpo
	nreach int     // blocks reachable from the entry: rpo[:nreach]
}

// Build constructs the CFG of fn in storage of its own.
func Build(fn *pcode.Function) *Graph {
	g := new(Graph)
	g.Init(fn, Heap{})
	return g
}

// Init builds the CFG of fn into g, carving every array from a.
func (g *Graph) Init(fn *pcode.Function, a Alloc) {
	*g = Graph{Fn: fn}
	n := len(fn.Ops)
	if n == 0 {
		return
	}

	// Leaders: op 0, targets of branches, and ops following a terminator,
	// marked in a bitset over the ops.
	leaders := a.Words((n + 63) / 64)
	mark := func(i int) { leaders[i/64] |= 1 << (i % 64) }
	mark(0)
	for i := range fn.Ops {
		op := &fn.Ops[i]
		switch op.Code {
		case pcode.BRANCH, pcode.CBRANCH:
			if idx, ok := g.targetOp(op); ok {
				mark(idx)
			}
			if i+1 < n {
				mark(i + 1)
			}
		case pcode.RETURN:
			if i+1 < n {
				mark(i + 1)
			}
		}
	}
	nblocks := 0
	for _, w := range leaders {
		nblocks += bits.OnesCount64(w)
	}
	g.Blocks = a.Blocks(nblocks)
	id := -1
	for i := 0; i < n; i++ {
		if leaders[i/64]&(1<<(i%64)) != 0 {
			id++
			g.Blocks[id] = Block{ID: id, Start: i}
			if id > 0 {
				g.Blocks[id-1].End = i
			}
		}
	}
	g.Blocks[id].End = n

	// Edges: every block's successors, then its predecessors in block
	// order, all carved from one array sized by a counting pass.
	nsucc := 0
	for b := range g.Blocks {
		_, k := g.succs(b)
		nsucc += k
	}
	edges := a.Ints(2 * nsucc)
	npred := a.Int32s(nblocks) // predecessor counts, then the rpo numbers
	off := 0
	for b := range g.Blocks {
		to, k := g.succs(b)
		blk := &g.Blocks[b]
		blk.Succs = edges[off : off+k : off+k]
		copy(blk.Succs, to[:k])
		off += k
		for _, s := range blk.Succs {
			npred[s]++
		}
	}
	for b := range g.Blocks {
		k := off + int(npred[b])
		g.Blocks[b].Preds = edges[off:off:k] // filled in place by the appends below
		off = k
	}
	for b := range g.Blocks {
		for _, s := range g.Blocks[b].Succs {
			g.Blocks[s].Preds = append(g.Blocks[s].Preds, b)
		}
	}
	g.order(npred, a.Ints(nblocks), a.Ints(nblocks))
}

// order computes the reverse post-order from the entry into rpo, with
// unreachable blocks appended in ID order so analyses still cover them,
// and numbers every block by its position in it. The depth-first walk is
// iterative, over an explicit stack, and visits successors in order, as
// the recursive definition does; num marks visited blocks with their next
// successor to explore until the walk ends.
func (g *Graph) order(num []int32, rpo, stack []int) {
	for i := range num {
		num[i] = -1
	}
	post, sp := 0, 1
	stack[0], num[0] = 0, 0
	for sp > 0 {
		v := stack[sp-1]
		if k := int(num[v]); k < len(g.Blocks[v].Succs) {
			num[v]++
			if s := g.Blocks[v].Succs[k]; num[s] < 0 {
				num[s] = 0
				stack[sp] = s
				sp++
			}
			continue
		}
		sp--
		rpo[post] = v
		post++
	}
	g.nreach = post
	slices.Reverse(rpo[:post])
	for id := range num {
		if num[id] < 0 {
			rpo[post] = id
			post++
		}
	}
	for i, id := range rpo {
		num[id] = int32(i)
	}
	g.rpo, g.rpoNum = rpo, num
}

// succs returns the successors of block b: the branch target, then the
// fallthrough, without repeats.
func (g *Graph) succs(b int) (to [2]int, n int) {
	blk := &g.Blocks[b]
	last := &g.Fn.Ops[blk.End-1]
	add := func(s int) {
		if n == 0 || to[0] != s {
			to[n] = s
			n++
		}
	}
	switch last.Code {
	case pcode.BRANCH, pcode.CBRANCH:
		if idx, ok := g.targetOp(last); ok {
			add(g.BlockOf(idx).ID)
		}
		if last.Code == pcode.BRANCH {
			return to, n
		}
	case pcode.RETURN:
		return to, n // no successors
	}
	if blk.End < len(g.Fn.Ops) {
		add(b + 1)
	}
	return to, n
}

// targetOp returns the index of the op a BRANCH/CBRANCH jumps to.
func (g *Graph) targetOp(op *pcode.Op) (int, bool) {
	target, ok := op.BranchTarget()
	if !ok {
		return 0, false
	}
	return g.opIndexAtOrAfter(target)
}

// opIndexAtOrAfter maps a machine address to the first op at or after it
// (NOPs lift to no ops, so an exact-address lookup can miss).
func (g *Graph) opIndexAtOrAfter(addr uint32) (int, bool) {
	if idx, ok := g.Fn.OpIndexAt(addr); ok {
		return idx, true
	}
	ops := g.Fn.Ops
	i := sort.Search(len(ops), func(i int) bool { return ops[i].Addr >= addr })
	if i < len(ops) {
		return i, true
	}
	return 0, false
}

// BlockOf returns the block containing the op at index i: the last block
// that starts at or before it, found by binary search.
func (g *Graph) BlockOf(i int) *Block {
	n := len(g.Blocks)
	if i < 0 || n == 0 || i >= g.Blocks[n-1].End {
		return nil
	}
	lo, hi := 0, n // Blocks[lo].Start <= i < Blocks[hi].Start
	for hi-lo > 1 {
		if m := (lo + hi) / 2; g.Blocks[m].Start <= i {
			lo = m
		} else {
			hi = m
		}
	}
	return &g.Blocks[lo]
}

// ReversePostOrder returns block IDs in reverse post-order from the entry,
// the canonical iteration order for forward dataflow problems. Unreachable
// blocks are appended afterwards in ID order so analyses still cover them.
// The order is computed once, at build; callers must not modify it.
func (g *Graph) ReversePostOrder() []int { return g.rpo }

// EntryReaches reports whether block id is reachable from the entry block.
func (g *Graph) EntryReaches(id int) bool {
	return id >= 0 && id < len(g.rpoNum) && int(g.rpoNum[id]) < g.nreach
}
