// Package constprop implements conditional constant propagation over lifted
// P-Code, in the SCCP style: a forward dataflow over the CFG that only
// propagates along executable edges, so a CBRANCH whose predicate folds to a
// constant prunes the untaken arm. The solution backs the lint checkers and
// the taint engine's constant-argument resolution, letting both follow
// values laundered through arbitrary COPY/arithmetic/stack-spill chains
// instead of a single reaching definition.
//
// The lattice per storage location is {unknown, constant}: a location absent
// from the state is unknown (the paper's conservative default), a present
// location holds a proven compile-time constant. Joins intersect states, so
// a value is constant at a point only when every executable path agrees on
// it.
//
// Layout: a Result owns no arrays of its own. The block-entry states are
// carved from one word array, the executable edges are flags in one array
// aligned with the CFG's predecessor lists, and ValueAt replays into one
// state the Result keeps and takes with an atomic swap; a query that
// finds it taken makes its own. Solve allocates the arrays on the heap,
// while a facts store builds in place (Init) from the slabs of its pooled
// set, so re-solving the functions of a recycled program allocates
// nothing.
package constprop

import (
	"slices"
	"sort"
	"sync/atomic"

	"firmres/internal/cfg"
	"firmres/internal/pcode"
)

// state is the dense lattice vector, indexed by the lift-time interned
// pcode.LocID: the lifter assigns every definable location a dense ID, so
// the per-op transfer reads and writes array slots instead of hashing map
// keys. Each word is one location's cell: zero when unknown, otherwise the
// constant with the known bit set (every value is masked to at most 32
// bits, so the bit is free). Two states then agree on a location exactly
// when their words are equal, and cloning a state (block entry, ValueAt
// replay) is one copy. A location the function never defines (pcode.NoLoc)
// is unknown by construction without touching the state at all.
type state []uint64

const known = 1 << 63

func (st state) get(id pcode.LocID) (uint64, bool) {
	c := st[id]
	return c &^ known, c&known != 0
}

func (st state) set(id pcode.LocID, v uint64) { st[id] = v | known }

func (st state) del(id pcode.LocID) { st[id] = 0 }

// Result is the constant-propagation solution of one function. Its arrays
// are carved from the cfg.Alloc it was built with.
type Result struct {
	Fn *pcode.Function
	G  *cfg.Graph

	nlocs int
	in    []uint64 // per-block state at block entry, nlocs words apiece
	reach []int32  // per-block executability from the entry: 1 when reached

	// replay is the ValueAt scratch state: lint checkers and the taint
	// engine query many points per function, and the replay needs a
	// mutable copy of the block-entry state each time. A query takes it
	// by swapping taken; a query that finds it taken, because another
	// goroutine is replaying, makes its own.
	replay state
	taken  atomic.Bool
}

// Solve computes the conditional constant-propagation solution for fn over
// its CFG, in storage of its own.
func Solve(fn *pcode.Function, g *cfg.Graph) *Result {
	r := new(Result)
	r.Init(fn, g, cfg.Heap{})
	return r
}

// Init computes the conditional constant-propagation solution for fn over
// its CFG into r, carving every array from a: the block-entry states, the
// meet state and the replay state, which the solve uses as its working
// state, in one word array; the flags, the executable-edge table and the
// worklist ring in one int32 array. A block's exit state is not kept: the
// solve replays it from the block's entry state when a successor meets
// over it.
func (r *Result) Init(fn *pcode.Function, g *cfg.Graph, a cfg.Alloc) {
	r.Fn, r.G, r.nlocs = fn, g, fn.NumLocs()
	r.taken.Store(false)
	n, nl := len(g.Blocks), r.nlocs
	npreds := 0
	for b := range g.Blocks {
		npreds += len(g.Blocks[b].Preds)
	}
	words := a.Words((n + 2) * nl)
	r.in, r.replay = words[:n*nl], words[(n+1)*nl:]
	in, st := state(words[n*nl:(n+1)*nl]), r.replay
	flags := a.Int32s(5*n + 1 + npreds)
	r.reach, flags = flags[:n], flags[n:]
	done, queued, ring, flags := flags[:n], flags[n:2*n], flags[2*n:3*n], flags[3*n:]
	// Edge p -> b is executable when exec[predAt[b]+k] is set, for the k
	// with Preds[k] == p.
	predAt, exec := flags[:n+1], flags[n+1:]
	for b := range g.Blocks {
		predAt[b+1] = predAt[b] + int32(len(g.Blocks[b].Preds))
	}
	if n == 0 {
		return
	}
	r.reach[0] = 1

	head, count := 0, 1 // the worklist: a FIFO ring, each block in it at most once
	ring[0], queued[0] = 0, 1
	for count > 0 {
		b := int(ring[head])
		head, count = (head+1)%n, count-1
		queued[b] = 0
		blk := &g.Blocks[b]

		// Meet over the executable incoming edges; the entry block starts
		// from the empty (everything-unknown) state regardless of back edges.
		if b == 0 {
			clear(in)
		} else {
			first := true
			for k, p := range blk.Preds {
				if exec[int(predAt[b])+k] == 0 || done[p] == 0 {
					continue
				}
				if first {
					r.exitState(in, p)
					first = false
				} else {
					r.exitState(st, p)
					in.meet(st)
				}
			}
			if first {
				continue // no executable predecessor reached yet
			}
		}
		entry := r.blockState(r.in, b)
		if done[b] != 0 && slices.Equal(in, entry) {
			continue
		}
		copy(entry, in)
		r.exitState(st, b)
		done[b] = 1

		for _, s := range r.execSuccs(blk, st) {
			for k, p := range g.Blocks[s].Preds {
				if p == b {
					exec[int(predAt[s])+k] = 1
					break
				}
			}
			r.reach[s] = 1
			if queued[s] == 0 {
				queued[s] = 1
				ring[(head+count)%n] = int32(s)
				count++
			}
		}
	}
}

// exitState sets st to block b's state at its exit: its entry state with
// every op of the block applied.
func (r *Result) exitState(st state, b int) {
	copy(st, r.blockState(r.in, b))
	blk := &r.G.Blocks[b]
	for i := blk.Start; i < blk.End; i++ {
		r.transfer(st, i)
	}
}

// blockState returns block b's state in states.
func (r *Result) blockState(states []uint64, b int) state {
	return states[b*r.nlocs : (b+1)*r.nlocs : (b+1)*r.nlocs]
}

// execSuccs returns the successors executable from blk given its out-state:
// all of them, except when the terminating CBRANCH predicate folds to a
// constant, which prunes the untaken arm.
func (r *Result) execSuccs(blk *cfg.Block, st state) []int {
	if blk.End == 0 || blk.End > len(r.Fn.Ops) {
		return blk.Succs
	}
	last := &r.Fn.Ops[blk.End-1]
	if last.Code != pcode.CBRANCH || len(last.Inputs) < 2 {
		return blk.Succs
	}
	pred, ok := r.eval(st, last.Inputs[1])
	if !ok {
		return blk.Succs
	}
	var want int
	if pred != 0 {
		target, ok := last.BranchTarget()
		if !ok {
			return blk.Succs
		}
		idx, ok := r.opIndexAtOrAfter(target)
		if !ok {
			return blk.Succs
		}
		want = r.G.BlockOf(idx).ID
	} else {
		if blk.End >= len(r.Fn.Ops) {
			return nil // conditional fallthrough off the function end
		}
		want = r.G.BlockOf(blk.End).ID
	}
	for k, s := range blk.Succs {
		if s == want {
			return blk.Succs[k : k+1]
		}
	}
	return blk.Succs
}

// opIndexAtOrAfter maps a machine address to the first op at or after it
// (NOPs lift to no ops, so an exact lookup can miss).
func (r *Result) opIndexAtOrAfter(addr uint32) (int, bool) {
	if idx, ok := r.Fn.OpIndexAt(addr); ok {
		return idx, true
	}
	ops := r.Fn.Ops
	i := sort.Search(len(ops), func(i int) bool { return ops[i].Addr >= addr })
	if i < len(ops) {
		return i, true
	}
	return 0, false
}

// transfer applies the op at index i to st.
func (r *Result) transfer(st state, i int) {
	op := &r.Fn.Ops[i]
	switch op.Code {
	case pcode.COPY:
		v, ok := r.eval(st, op.Inputs[0])
		r.assign(st, op.Output, v, ok)

	case pcode.INT_ADD, pcode.INT_SUB, pcode.INT_MULT, pcode.INT_DIV,
		pcode.INT_AND, pcode.INT_OR, pcode.INT_XOR,
		pcode.INT_LEFT, pcode.INT_RIGHT,
		pcode.INT_EQUAL, pcode.INT_NOTEQUAL, pcode.INT_SLESS:
		a, aok := r.eval(st, op.Inputs[0])
		b, bok := r.eval(st, op.Inputs[1])
		if aok && bok {
			v, ok := fold(op.Code, a, b)
			r.assign(st, op.Output, v, ok)
		} else {
			r.forget(st, op.Output)
		}

	case pcode.BOOL_NEGATE:
		if v, ok := r.eval(st, op.Inputs[0]); ok {
			r.assign(st, op.Output, boolVal(v == 0), true)
		} else {
			r.forget(st, op.Output)
		}

	case pcode.LOAD:
		if slot := r.Fn.SlotLocAt(i); slot != pcode.NoLoc {
			if v, ok := st.get(slot); ok {
				r.assign(st, op.Output, v, true)
				return
			}
		}
		r.forget(st, op.Output)

	case pcode.STORE:
		if slot := r.Fn.SlotLocAt(i); slot != pcode.NoLoc {
			src := op.Inputs[1]
			if v, ok := r.eval(st, src); ok {
				st.set(slot, mask(v, src.Size))
			} else {
				st.del(slot)
			}
			return
		}
		// A store through an unresolved pointer may hit any tracked slot.
		r.clobberRAM(st)

	case pcode.CALL, pcode.CALLIND:
		if op.HasOut {
			r.forget(st, op.Output)
		}
		// The callee may write memory reachable through its arguments.
		r.clobberRAM(st)

	case pcode.MULTIEQUAL:
		var val uint64
		agreed := true
		for j, in := range op.Inputs {
			v, ok := r.eval(st, in)
			if !ok || (j > 0 && v != val) {
				agreed = false
				break
			}
			val = v
		}
		if agreed && len(op.Inputs) > 0 {
			r.assign(st, op.Output, val, true)
		} else {
			r.forget(st, op.Output)
		}

	case pcode.CBRANCH, pcode.BRANCH, pcode.RETURN:
		// No state change; CBRANCH pruning happens at edge level.

	default:
		if op.HasOut {
			r.forget(st, op.Output)
		}
	}
}

// ValueAt returns the proven compile-time constant value of v at the program
// point just before the op at opIdx, replaying the containing block from its
// solved entry state. The second result is false when v is not provably
// constant there or the point is unreachable.
func (r *Result) ValueAt(opIdx int, v pcode.Varnode) (uint64, bool) {
	blk := r.G.BlockOf(opIdx)
	if blk == nil || r.reach[blk.ID] == 0 {
		return 0, false
	}
	st := r.replay
	own := r.taken.CompareAndSwap(false, true)
	if !own {
		st = make(state, r.nlocs)
	}
	copy(st, r.blockState(r.in, blk.ID))
	for i := blk.Start; i < opIdx; i++ {
		r.transfer(st, i)
	}
	val, ok := r.eval(st, v)
	if own {
		r.taken.Store(false)
	}
	return val, ok
}

// Reachable reports whether the op at opIdx is executable from the function
// entry under the solved conditional constants.
func (r *Result) Reachable(opIdx int) bool {
	blk := r.G.BlockOf(opIdx)
	return blk != nil && r.reach[blk.ID] != 0
}

// eval resolves a varnode against the state: constants fold immediately,
// tracked locations read their lattice value by interned ID.
func (r *Result) eval(st state, v pcode.Varnode) (uint64, bool) {
	if v.IsConst() {
		return mask(v.Offset, v.Size), true
	}
	id := r.Fn.LocID(v)
	if id == pcode.NoLoc {
		return 0, false
	}
	return st.get(id)
}

// assign records the output of an op: a constant result enters the state,
// an unknown one evicts any stale entry.
func (r *Result) assign(st state, out pcode.Varnode, v uint64, ok bool) {
	id := r.Fn.LocID(out) // outputs are always interned at lift time
	if id == pcode.NoLoc {
		return
	}
	if !ok {
		st.del(id)
		return
	}
	st.set(id, mask(v, out.Size))
}

func (r *Result) forget(st state, v pcode.Varnode) {
	if id := r.Fn.LocID(v); id != pcode.NoLoc {
		st.del(id)
	}
}

// clobberRAM drops every tracked memory slot: an opaque write or call may
// have redefined any of them. The lifter's interned RAM-location list
// bounds the sweep to the slots that can exist at all.
func (r *Result) clobberRAM(st state) {
	for _, id := range r.Fn.RAMLocs() {
		st.del(id)
	}
}

// meet intersects st with other in place: only locations constant with the
// same value on both paths survive.
func (st state) meet(other state) {
	for id := range st {
		if st[id] != other[id] {
			st[id] = 0
		}
	}
}

// fold evaluates a binary P-Code op over 32-bit machine words.
func fold(code pcode.OpCode, a, b uint64) (uint64, bool) {
	x, y := uint32(a), uint32(b)
	switch code {
	case pcode.INT_ADD:
		return uint64(x + y), true
	case pcode.INT_SUB:
		return uint64(x - y), true
	case pcode.INT_MULT:
		return uint64(x * y), true
	case pcode.INT_DIV:
		if y == 0 {
			return 0, false
		}
		return uint64(x / y), true
	case pcode.INT_AND:
		return uint64(x & y), true
	case pcode.INT_OR:
		return uint64(x | y), true
	case pcode.INT_XOR:
		return uint64(x ^ y), true
	case pcode.INT_LEFT:
		if y >= 32 {
			return 0, true
		}
		return uint64(x << y), true
	case pcode.INT_RIGHT:
		if y >= 32 {
			return 0, true
		}
		return uint64(x >> y), true
	case pcode.INT_EQUAL:
		return boolVal(x == y), true
	case pcode.INT_NOTEQUAL:
		return boolVal(x != y), true
	case pcode.INT_SLESS:
		return boolVal(int32(x) < int32(y)), true
	}
	return 0, false
}

func boolVal(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func mask(v uint64, size uint8) uint64 {
	switch size {
	case 1:
		return v & 0xff
	case 2:
		return v & 0xffff
	default:
		return v & 0xffffffff
	}
}
