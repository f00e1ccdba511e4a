package pcode

import (
	"cmp"
	"fmt"
	"slices"

	"firmres/internal/binfmt"
	"firmres/internal/isa"
	"firmres/internal/slab"
)

// Program is the fully-lifted P-Code view of one binary: every function's
// listing plus whole-program callsite indexes. It is the unit of analysis
// for the call graph, the handler identification, and the taint engine.
//
// Every function's arrays are carved from the program's slabs (slab.Slab,
// the one allocator of a set), sized from each function's own code as it
// is lifted; the function shells, their interning tables and the decode
// buffer are the only storage the program keeps of its own.
type Program struct {
	Bin    *binfmt.Binary
	Funcs  []*Function // in address order; Function.Index is the position here
	byAddr map[uint32]*Function

	fns    []Function // the function shells, in symbol order; Funcs points into it
	ops    slab.Slab[Op]
	ins    slab.Slab[Varnode]
	calls  slab.Slab[CallTarget]
	opAt   slab.Slab[int32]
	slots  slab.Slab[LocID]
	instrs []isa.Instruction // the decode buffer, kept for the next Lift
}

// LiftProgram lifts every function symbol of the binary into storage of
// its own: the case of Lift with nothing to recycle.
func LiftProgram(bin *binfmt.Binary) (*Program, error) {
	p := new(Program)
	if err := p.Lift(bin); err != nil {
		return nil, err
	}
	return p, nil
}

// Lift lifts every function symbol of the binary into p, recycling first
// the slabs, function shells, address index and decode buffer an earlier
// Lift left in p; lifting the same binary again allocates nothing once a
// recycle has consolidated its slabs. p's owner calls it only once
// nothing reads p, its functions, or any op, varnode or call target taken
// from them any more.
func (p *Program) Lift(bin *binfmt.Binary) error {
	if err := p.lift(bin); err != nil {
		return fmt.Errorf("pcode: program %q: %w", bin.Name, err)
	}
	return nil
}

// lift fills p with the P-Code of every function of bin, decoding,
// sizing, carving and lifting one function at a time. The first function
// in symbol order that fails to decode or lift ends it.
func (p *Program) lift(bin *binfmt.Binary) error {
	p.Recycle(false)
	p.Bin = bin
	if n := len(bin.Funcs); cap(p.fns) < n {
		fns := make([]Function, n)
		copy(fns, p.fns[:cap(p.fns)]) // the old shells' interning tables are reused too
		p.fns = fns
	}
	p.fns, p.Funcs = p.fns[:0], p.Funcs[:0]
	if p.byAddr == nil {
		p.byAddr = make(map[uint32]*Function, len(bin.Funcs))
	}
	for _, sym := range bin.Funcs {
		instrs, err := p.decode(bin, sym)
		if err != nil {
			return err
		}
		p.fns = p.fns[:len(p.fns)+1]
		f := &p.fns[len(p.fns)-1]
		if err := f.lift(bin, sym, instrs, p); err != nil {
			return err
		}
		p.Funcs = append(p.Funcs, f)
		p.byAddr[sym.Addr] = f
	}
	slices.SortFunc(p.Funcs, func(a, b *Function) int { return cmp.Compare(a.Addr(), b.Addr()) })
	for i, f := range p.Funcs {
		f.index = i
	}
	return nil
}

// Recycle empties p once nothing reads it, its functions, or any op,
// varnode or call target taken from them: its binary is dropped and every
// slab cleared, so p pins nothing of the binary, or with scrub overwritten
// with garbage, so a reader that still holds p computes nonsense instead
// of a plausible stale answer (tests use that to prove that nothing
// outlives a release). The slabs are consolidated for the next Lift,
// which recycles p itself when its owner has not.
func (p *Program) Recycle(scrub bool) {
	p.Bin = nil
	p.ops.Recycle(scrub, Op{Seq: -1, Addr: 0xdeadbeef, Code: 0xee})
	p.ins.Recycle(scrub, Varnode{Offset: 0xdeadbeef, Space: 0xee})
	p.calls.Recycle(scrub, CallTarget{Name: "scrubbed", Arity: -1})
	p.opAt.Recycle(scrub, 0)
	p.slots.Recycle(scrub, 0)
	fns := p.fns[:cap(p.fns)]
	for i := range fns {
		f := &fns[i]
		if !scrub {
			// A shell that kept its arrays would keep a chunk the
			// recycle consolidated away alive.
			f.Sym, f.Ops, f.opAt, f.slotLoc = binfmt.FuncSym{}, nil, nil, nil
			continue
		}
		f.Sym.Name, f.index = "scrubbed", -1
		clear(f.locs)
		clear(f.ramIDs)
		clear(f.locIdx)
	}
	clear(p.byAddr)
}

// FuncAt returns the lifted function whose entry is addr.
func (p *Program) FuncAt(addr uint32) (*Function, bool) {
	f, ok := p.byAddr[addr]
	return f, ok
}

// FuncByName returns the lifted function with the given symbol name, the
// last in symbol order when several share it. It scans the functions: no
// analysis looks functions up by name.
func (p *Program) FuncByName(name string) (*Function, bool) {
	for i := len(p.fns) - 1; i >= 0; i-- {
		if f := &p.fns[i]; f.Sym.Name == name {
			return f, true
		}
	}
	return nil, false
}

// CallSite is one CALL/CALLIND op located within a function.
type CallSite struct {
	Fn    *Function
	OpIdx int // index into Fn.Ops
}

// Op returns the callsite's operation.
func (cs CallSite) Op() *Op { return &cs.Fn.Ops[cs.OpIdx] }

// CallSites returns every callsite in the program, in function/op order.
func (p *Program) CallSites() []CallSite {
	var out []CallSite
	for _, f := range p.Funcs {
		for i := range f.Ops {
			if f.Ops[i].Code == CALL || f.Ops[i].Code == CALLIND {
				out = append(out, CallSite{Fn: f, OpIdx: i})
			}
		}
	}
	return out
}

// CallSitesTo returns callsites whose resolved callee name matches name
// (local or imported).
func (p *Program) CallSitesTo(name string) []CallSite {
	var out []CallSite
	for _, cs := range p.CallSites() {
		if c := cs.Op().Call; c != nil && c.Name == name {
			out = append(out, cs)
		}
	}
	return out
}
