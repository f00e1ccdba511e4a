package pcode

import "firmres/internal/isa"

// Loc identifies a storage location — a (space, offset) pair with the
// access size erased. It is the unit of interning: every location a
// function can define (op outputs and resolved stack slots) is assigned a
// dense LocID at lift time, so the dataflow and constant-propagation
// layers index arrays and compare integers instead of hashing struct keys
// on every op they visit.
type Loc struct {
	Space  Space
	Offset uint64
}

// LocID is a dense per-function location index. IDs are only meaningful
// within the function that interned them.
type LocID int32

// NoLoc marks "not interned": the location is never defined in the
// function (so no def-use or constant state can exist for it) or an op
// has no resolved stack slot.
const NoLoc LocID = -1

// locOf erases a varnode's size down to its interned location key.
func locOf(v Varnode) Loc { return Loc{Space: v.Space, Offset: v.Offset} }

// locKey packs a location into the uint64 map key the intern index is
// built on: hashing a packed integer (map_fast64) is measurably cheaper
// than hashing the two-field struct, and LocID lookups run once per
// operand in the dataflow and constant-propagation inner loops. Packing
// is collision-free because every internable location has a 32-bit
// offset — register indices, unique-space counters, and RAM slot offsets
// masked by the lifter; constants are never defined, hence never
// interned — which internLoc asserts.
func locKey(l Loc) uint64 { return uint64(l.Space)<<32 | l.Offset }

// internLoc assigns (or returns) the dense ID of a location. Lift-time
// only: the tables are immutable once Lift returns, which is what makes
// concurrent LocID lookups from analysis workers safe.
func (f *Function) internLoc(l Loc) LocID {
	if l.Offset > 0xffffffff {
		panic("pcode: interned location offset exceeds 32 bits")
	}
	if id, ok := f.locIdx[locKey(l)]; ok {
		return id
	}
	id := LocID(len(f.locs))
	f.locs = append(f.locs, l)
	f.locIdx[locKey(l)] = id
	if l.Space == SpaceRAM {
		f.ramIDs = append(f.ramIDs, id)
	}
	return id
}

// LocID returns the dense ID of v's location, or NoLoc when the function
// never defines it (such a location can carry no definitions and no
// constant state). Safe for concurrent use after Lift.
func (f *Function) LocID(v Varnode) LocID {
	if v.Offset > 0xffffffff {
		return NoLoc // interned locations always have 32-bit offsets
	}
	id, ok := f.locIdx[locKey(locOf(v))]
	if !ok {
		return NoLoc
	}
	return id
}

// NumLocs returns the number of interned locations; valid LocIDs are
// [0, NumLocs).
func (f *Function) NumLocs() int { return len(f.locs) }

// RAMLocs returns the IDs of every interned RAM-space location. Callers
// must not mutate the returned slice.
func (f *Function) RAMLocs() []LocID { return f.ramIDs }

// SlotAt returns the synthetic stack-slot varnode of the LOAD/STORE at
// opIdx, resolved once at lift time: the op's address unique must be
// defined by the INT_ADD(SP, const) the lifter emitted just before it.
// This is the shared resolver behind dataflow and constprop spill
// tracking.
func (f *Function) SlotAt(opIdx int) (Varnode, bool) {
	if opIdx < 0 || opIdx >= len(f.slotLoc) || f.slotLoc[opIdx] == NoLoc {
		return Varnode{}, false
	}
	return Varnode{Space: SpaceRAM, Offset: f.locs[f.slotLoc[opIdx]].Offset, Size: 4}, true
}

// SlotLocAt is SlotAt at the LocID level: the interned stack-slot
// location of the LOAD/STORE at opIdx, or NoLoc.
func (f *Function) SlotLocAt(opIdx int) LocID {
	if opIdx < 0 || opIdx >= len(f.slotLoc) {
		return NoLoc
	}
	return f.slotLoc[opIdx]
}

// resolveSlots precomputes the per-op stack-slot table after all ops are
// emitted, interning each resolved slot's RAM location.
func (f *Function) resolveSlots() {
	f.slotLoc = make([]LocID, len(f.Ops))
	for i := range f.slotLoc {
		f.slotLoc[i] = NoLoc
	}
	for i := range f.Ops {
		op := &f.Ops[i]
		if op.Code != LOAD && op.Code != STORE {
			continue
		}
		if i == 0 || len(op.Inputs) == 0 || op.Inputs[0].Space != SpaceUnique {
			continue
		}
		ea := &f.Ops[i-1]
		if !ea.HasOut || ea.Output != op.Inputs[0] || ea.Code != INT_ADD {
			continue
		}
		base, ok := ea.Inputs[0].Reg()
		if !ok || base != isa.SP || !ea.Inputs[1].IsConst() {
			continue
		}
		f.slotLoc[i] = f.internLoc(Loc{Space: SpaceRAM, Offset: ea.Inputs[1].Offset & 0xffffffff})
	}
}
