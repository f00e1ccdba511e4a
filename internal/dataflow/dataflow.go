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

// DefUse holds the reaching-definitions solution of one function. A
// definition is named by the index of the op that makes it, so the sets
// have one bit per op and need no numbering table. Its arrays are carved
// from the cfg.Alloc it was built with: the op and location tables in one
// int32 array, the definitions grouped by location in another, and the IN,
// OUT, GEN and KILL sets of every block in one word array.
type DefUse struct {
	Fn *pcode.Function
	G  *cfg.Graph

	words   int      // words per set: one bit per op
	in, out []uint64 // per-block IN and OUT sets, words apiece

	opLoc   []int32 // op index -> the location it defines, -1 (pcode.NoLoc) for ops that don't define
	locAt   []int32 // location ID -> its first entry in locDefs; NumLocs+1 entries
	locDefs []int32 // the defining op indices grouped by location, each group in op order
}

// New computes the reaching-definitions solution for fn over its CFG, in
// storage of its own.
func New(fn *pcode.Function, g *cfg.Graph) *DefUse {
	du := new(DefUse)
	du.Init(fn, g, cfg.Heap{})
	return du
}

// Init computes the reaching-definitions solution for fn over its CFG into
// du, carving every array from a.
func (du *DefUse) Init(fn *pcode.Function, g *cfg.Graph, a cfg.Alloc) {
	*du = DefUse{Fn: fn, G: g}
	du.collectDefs(a)
	du.solve(a)
}

// collectDefs records the location every op defines and groups the
// definitions by location. STOREs to resolvable stack slots define the
// slot's synthetic location.
func (du *DefUse) collectDefs(a cfg.Alloc) {
	ops := du.Fn.Ops
	nlocs := du.Fn.NumLocs()
	ndefs := 0
	tables := a.Int32s(len(ops) + nlocs + 1)
	du.opLoc, du.locAt = tables[:len(ops)], tables[len(ops):]
	for i := range ops {
		op := &ops[i]
		loc := pcode.NoLoc
		switch {
		case op.HasOut:
			loc = du.Fn.LocID(op.Output)
		case op.Code == pcode.STORE:
			loc = du.Fn.SlotLocAt(i)
		}
		du.opLoc[i] = int32(loc)
		if loc != pcode.NoLoc {
			du.locAt[loc+1]++
			ndefs++
		}
	}
	for l := 1; l <= nlocs; l++ {
		du.locAt[l] += du.locAt[l-1]
	}
	// locAt[l] serves as location l's fill cursor, which leaves it at the
	// start of group l+1; shifting the table back restores the starts.
	du.locDefs = a.Int32s(ndefs)
	for i, loc := range du.opLoc {
		if loc >= 0 {
			du.locDefs[du.locAt[loc]] = int32(i)
			du.locAt[loc]++
		}
	}
	copy(du.locAt[1:], du.locAt[:nlocs])
	du.locAt[0] = 0
}

// defsOf returns the defining op indices of location loc.
func (du *DefUse) defsOf(loc pcode.LocID) []int32 {
	return du.locDefs[du.locAt[loc]:du.locAt[loc+1]]
}

// Slot returns the resolved stack-slot varnode of a LOAD/STORE op, if any.
func (du *DefUse) Slot(opIdx int) (pcode.Varnode, bool) {
	return du.Fn.SlotAt(opIdx)
}

// set returns block b's set in sets.
func (du *DefUse) set(sets []uint64, b int) bitset {
	return sets[b*du.words : (b+1)*du.words : (b+1)*du.words]
}

// solve runs the classic iterative reaching-definitions fixpoint, in
// place: starting from empty sets every IN and OUT only grows, so each
// round folds the predecessors' OUT sets into IN and recomputes OUT word
// by word.
func (du *DefUse) solve(a cfg.Alloc) {
	nblocks := len(du.G.Blocks)
	du.words = (len(du.opLoc) + 63) / 64
	sets := a.Words(4 * nblocks * du.words)
	n := nblocks * du.words
	du.in, du.out = sets[:n], sets[n:2*n]
	gens, kills := sets[2*n:3*n], sets[3*n:]
	for b := range du.G.Blocks {
		gen, kill := du.set(gens, b), du.set(kills, b)
		blk := &du.G.Blocks[b]
		for i := blk.Start; i < blk.End; i++ {
			loc := du.opLoc[i]
			if loc < 0 {
				continue
			}
			// This def kills all other defs of the same location.
			for _, other := range du.defsOf(pcode.LocID(loc)) {
				if int(other) != i {
					gen.clear(int(other))
					kill.set(int(other))
				}
			}
			gen.set(i)
			kill.clear(i)
		}
	}

	order := du.G.ReversePostOrder()
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			in, out := du.set(du.in, b), du.set(du.out, b)
			for _, p := range du.G.Blocks[b].Preds {
				if in.union(du.set(du.out, p)) {
					changed = true
				}
			}
			gen, kill := du.set(gens, b), du.set(kills, b)
			for w := range out {
				if x := in[w]&^kill[w] | gen[w]; x != out[w] {
					out[w] = x
					changed = true
				}
			}
		}
	}
}

// ReachingDefs returns the op indices of the definitions of location v that
// reach the program point just before opIdx, in a slice of their own.
func (du *DefUse) ReachingDefs(opIdx int, v pcode.Varnode) []int {
	return du.AppendReachingDefs(nil, opIdx, v)
}

// AppendReachingDefs appends the op indices ReachingDefs returns to dst
// and returns the extended slice, so a caller that passes a buffer of its
// own allocates nothing while the buffer has room.
func (du *DefUse) AppendReachingDefs(dst []int, opIdx int, v pcode.Varnode) []int {
	return du.reachingDefs(dst, opIdx, v, false)
}

// HasReachingDef reports whether any definition of location v reaches the
// program point just before opIdx: whether ReachingDefs is non-empty,
// without building it.
func (du *DefUse) HasReachingDef(opIdx int, v pcode.Varnode) bool {
	var one [1]int
	return len(du.reachingDefs(one[:0], opIdx, v, true)) > 0
}

// reachingDefs appends the reaching definitions of v at opIdx to dst, or
// only the first one found when first is set.
func (du *DefUse) reachingDefs(dst []int, opIdx int, v pcode.Varnode, first bool) []int {
	loc := du.Fn.LocID(v)
	if loc == pcode.NoLoc {
		return dst
	}
	candidates := du.defsOf(loc)
	if len(candidates) == 0 {
		return dst
	}
	blk := du.G.BlockOf(opIdx)
	if blk == nil {
		return dst
	}
	// Walk the block from its start to opIdx, tracking the last local def.
	lastLocal := -1
	for i := blk.Start; i < opIdx; i++ {
		if pcode.LocID(du.opLoc[i]) == loc {
			lastLocal = i
		}
	}
	if lastLocal >= 0 {
		return append(dst, lastLocal)
	}
	// Otherwise every def of loc in the block's IN set reaches.
	in := du.set(du.in, blk.ID)
	for _, d := range candidates {
		if in.has(int(d)) {
			dst = append(dst, int(d))
			if first {
				break
			}
		}
	}
	return dst
}

// DefSites returns the op indices of all definitions of location v anywhere
// in the function.
func (du *DefUse) DefSites(v pcode.Varnode) []int {
	loc := du.Fn.LocID(v)
	if loc == pcode.NoLoc {
		return nil
	}
	var out []int
	for _, d := range du.defsOf(loc) {
		out = append(out, int(d))
	}
	return out
}

// IsParamLive reports whether location v used at opIdx may still hold the
// function's incoming value (i.e. no definition of v reaches opIdx). This is
// how the taint engine decides to escalate to the callers (§IV-B: "if the
// taint source is a parameter of its caller, all possible callsites of the
// caller would be analyzed").
func (du *DefUse) IsParamLive(opIdx int, v pcode.Varnode) bool {
	if du.HasReachingDef(opIdx, v) {
		return false
	}
	// Entry value reaches opIdx only if the block is reachable from entry.
	blk := du.G.BlockOf(opIdx)
	return blk != nil && du.G.EntryReaches(blk.ID)
}

// bitset is a fixed-capacity bit vector.
type bitset []uint64

func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool {
	return b[i/64]&(1<<(i%64)) != 0
}

// union adds o's members to b and reports whether b grew.
func (b bitset) union(o bitset) bool {
	grew := false
	for i := range b {
		if x := b[i] | o[i]; x != b[i] {
			b[i] = x
			grew = true
		}
	}
	return grew
}
