// Package dataflow implements intra-procedural reaching-definitions
// analysis and def-use queries over lifted P-Code, the machinery underneath
// the backward taint engine of §IV-B.
//
// Definitions are P-Code ops with an output varnode. Storage locations are
// the lift-time interned (space, offset) pairs of package pcode: stack
// slots addressed as INT_ADD(SP, const) through LOAD/STORE resolve to
// synthetic RAM-space locations (precomputed by the lifter) so that
// register spills do not break backward traces, and every per-op structure
// here is a dense array indexed by op or pcode.LocID — the solver and the
// ReachingDefs block walk never hash a key. Unresolvable memory stays
// conservative, matching the paper's over-taint strategy.
package dataflow

import (
	"firmres/internal/cfg"
	"firmres/internal/pcode"
)

// DefUse holds the reaching-definitions solution of one function.
type DefUse struct {
	Fn  *pcode.Function
	G   *cfg.Graph
	in  []bitset // per-block IN sets over def indices
	out []bitset

	defOps  []int32       // def index -> op index
	defLoc  []pcode.LocID // def index -> defined location
	defsAt  []int32       // op index -> def index, -1 for ops that don't define
	locDefs [][]int32     // location ID -> def indices
}

// New computes the reaching-definitions solution for fn over its CFG.
func New(fn *pcode.Function, g *cfg.Graph) *DefUse {
	du := &DefUse{
		Fn: fn,
		G:  g,
		// Nearly every op defines a location, so the op count is a tight
		// bound on the def tables.
		defOps:  make([]int32, 0, len(fn.Ops)),
		defLoc:  make([]pcode.LocID, 0, len(fn.Ops)),
		defsAt:  make([]int32, len(fn.Ops)),
		locDefs: make([][]int32, fn.NumLocs()),
	}
	for i := range du.defsAt {
		du.defsAt[i] = -1
	}
	du.collectDefs()
	du.solve()
	return du
}

// collectDefs numbers every definition. STOREs to resolvable stack slots
// define the slot's synthetic location.
func (du *DefUse) collectDefs() {
	ops := du.Fn.Ops
	for i := range ops {
		op := &ops[i]
		switch {
		case op.HasOut:
			du.addDef(i, du.Fn.LocID(op.Output))
		case op.Code == pcode.STORE:
			if slot := du.Fn.SlotLocAt(i); slot != pcode.NoLoc {
				du.addDef(i, slot)
			}
		}
	}
}

func (du *DefUse) addDef(opIdx int, loc pcode.LocID) {
	idx := int32(len(du.defOps))
	du.defOps = append(du.defOps, int32(opIdx))
	du.defLoc = append(du.defLoc, loc)
	du.defsAt[opIdx] = idx
	du.locDefs[loc] = append(du.locDefs[loc], idx)
}

// Slot returns the resolved stack-slot varnode of a LOAD/STORE op, if any.
func (du *DefUse) Slot(opIdx int) (pcode.Varnode, bool) {
	return du.Fn.SlotAt(opIdx)
}

// solve runs the classic iterative reaching-definitions fixpoint.
func (du *DefUse) solve() {
	nblocks := len(du.G.Blocks)
	ndefs := len(du.defOps)
	du.in = make([]bitset, nblocks)
	du.out = make([]bitset, nblocks)
	gen := make([]bitset, nblocks)
	kill := make([]bitset, nblocks)
	for b := 0; b < nblocks; b++ {
		du.in[b] = newBitset(ndefs)
		du.out[b] = newBitset(ndefs)
		gen[b] = newBitset(ndefs)
		kill[b] = newBitset(ndefs)
		blk := du.G.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			di := du.defsAt[i]
			if di < 0 {
				continue
			}
			loc := du.defLoc[di]
			// This def kills all other defs of the same location.
			for _, other := range du.locDefs[loc] {
				if other != di {
					gen[b].clear(int(other))
					kill[b].set(int(other))
				}
			}
			gen[b].set(int(di))
			kill[b].clear(int(di))
		}
	}

	order := du.G.ReversePostOrder()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			blk := du.G.Blocks[b]
			in := newBitset(ndefs)
			for _, p := range blk.Preds {
				in.union(du.out[p])
			}
			out := in.clone()
			out.subtract(kill[b])
			out.union(gen[b])
			if !in.equal(du.in[b]) || !out.equal(du.out[b]) {
				du.in[b] = in
				du.out[b] = out
				changed = true
			}
		}
	}
}

// ReachingDefs returns the op indices of the definitions of location v that
// reach the program point just before opIdx.
func (du *DefUse) ReachingDefs(opIdx int, v pcode.Varnode) []int {
	loc := du.Fn.LocID(v)
	if loc == pcode.NoLoc {
		return nil
	}
	candidates := du.locDefs[loc]
	if len(candidates) == 0 {
		return nil
	}
	blk := du.G.BlockOf(opIdx)
	if blk == nil {
		return nil
	}
	// Walk the block from its start to opIdx, tracking the last local def.
	lastLocal := int32(-1)
	for i := blk.Start; i < opIdx; i++ {
		if di := du.defsAt[i]; di >= 0 && du.defLoc[di] == loc {
			lastLocal = di
		}
	}
	if lastLocal >= 0 {
		return []int{int(du.defOps[lastLocal])}
	}
	// Otherwise every def of loc in the block's IN set reaches.
	var out []int
	for _, di := range candidates {
		if du.in[blk.ID].has(int(di)) {
			out = append(out, int(du.defOps[di]))
		}
	}
	return out
}

// DefSites returns the op indices of all definitions of location v anywhere
// in the function.
func (du *DefUse) DefSites(v pcode.Varnode) []int {
	loc := du.Fn.LocID(v)
	if loc == pcode.NoLoc {
		return nil
	}
	var out []int
	for _, di := range du.locDefs[loc] {
		out = append(out, int(du.defOps[di]))
	}
	return out
}

// IsParamLive reports whether location v used at opIdx may still hold the
// function's incoming value (i.e. no definition of v reaches opIdx). This is
// how the taint engine decides to escalate to the callers (§IV-B: "if the
// taint source is a parameter of its caller, all possible callsites of the
// caller would be analyzed").
func (du *DefUse) IsParamLive(opIdx int, v pcode.Varnode) bool {
	if len(du.ReachingDefs(opIdx, v)) > 0 {
		return false
	}
	// Entry value reaches opIdx only if the block is reachable from entry.
	blk := du.G.BlockOf(opIdx)
	return blk != nil && du.G.EntryReaches(blk.ID)
}

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool {
	return b[i/64]&(1<<(i%64)) != 0
}

func (b bitset) clone() bitset {
	c := make(bitset, len(b))
	copy(c, b)
	return c
}

func (b bitset) union(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}

func (b bitset) subtract(o bitset) {
	for i := range b {
		b[i] &^= o[i]
	}
}

func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
