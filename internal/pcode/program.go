package pcode

import (
	"cmp"
	"fmt"
	"slices"

	"firmres/internal/binfmt"
	"firmres/internal/isa"
)

// Program is the fully-lifted P-Code view of one binary: every function's
// listing plus whole-program callsite indexes. It is the unit of analysis
// for the call graph, the handler identification, and the taint engine.
type Program struct {
	Bin    *binfmt.Binary
	Funcs  []*Function // in address order; Function.Index is the position here
	byAddr map[uint32]*Function

	fns     []Function // the function shells, in symbol order; Funcs points into it
	slabs              // the storage every function's arrays are carved from
	scratch scratch    // the decode buffers, kept for the next Lift
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

// Lift lifts every function symbol of the binary into p, reusing the slabs,
// function shells, address index and decode scratch an earlier Lift left in
// p; lifting the same binary again allocates nothing. p's owner calls it
// only once nothing reads p, its functions, or any op, varnode or call
// target taken from them any more.
func (p *Program) Lift(bin *binfmt.Binary) error {
	if err := p.lift(bin); err != nil {
		return fmt.Errorf("pcode: program %q: %w", bin.Name, err)
	}
	return nil
}

// lift fills p with the P-Code of every function of bin, reusing the
// slabs, shells, address index and decode buffer a recycled p kept.
func (p *Program) lift(bin *binfmt.Binary) error {
	sc := &p.scratch
	sc.sizes = sc.sizes[:0]
	if n := maxInstrs(bin); cap(sc.instrs) < n {
		sc.instrs = make([]isa.Instruction, 0, n)
	}
	// Size every function first, so each slab is sized once, exactly; the
	// lift below decodes each function again. A function that fails to
	// decode ends the pass, but the functions before it still lift first,
	// so the error reported is the first in symbol order.
	var total size
	var decodeErr error
	for _, sym := range bin.Funcs {
		instrs, err := sc.decode(bin, sym)
		if err != nil {
			decodeErr = err
			break
		}
		n := sizeOfCode(bin, instrs)
		sc.sizes = append(sc.sizes, n)
		total.add(n)
	}
	p.Bin = bin
	p.slabs.reset(total)
	if n := len(sc.sizes); cap(p.fns) < n {
		fns := make([]Function, n)
		copy(fns, p.fns[:cap(p.fns)]) // the old shells' interning tables are reused too
		p.fns = fns
	}
	p.fns = p.fns[:len(sc.sizes)]
	p.Funcs = p.Funcs[:0]
	if p.byAddr == nil {
		p.byAddr = make(map[uint32]*Function, len(bin.Funcs))
	} else {
		clear(p.byAddr)
	}
	for i, n := range sc.sizes {
		sym, f := bin.Funcs[i], &p.fns[i]
		instrs, _ := sc.decode(bin, sym) // it decoded once already
		if err := f.lift(bin, sym, instrs, n, &p.slabs); err != nil {
			return err
		}
		p.Funcs = append(p.Funcs, f)
		p.byAddr[sym.Addr] = f
	}
	if decodeErr != nil {
		return decodeErr
	}
	slices.SortFunc(p.Funcs, func(a, b *Function) int { return cmp.Compare(a.Addr(), b.Addr()) })
	for i, f := range p.Funcs {
		f.index = i
	}
	return nil
}

// maxInstrs returns the instruction count of bin's largest function
// symbol, capped at the text section's: symbol sizes come from the binary
// and are not trusted.
func maxInstrs(bin *binfmt.Binary) int {
	n := 0
	for _, sym := range bin.Funcs {
		n = max(n, int(sym.Size/isa.InstrSize))
	}
	return min(n, len(bin.Text)/isa.InstrSize)
}

// Scrub overwrites p's ops, inputs, call targets and tables with garbage
// and drops its binary, so a reader that still holds p after its owner
// gave it up computes nonsense instead of a plausible stale answer. Tests
// use it to prove that nothing outlives a release.
func (p *Program) Scrub() {
	p.Bin = nil
	for i := range p.ops {
		p.ops[i] = Op{Seq: -1, Addr: 0xdeadbeef, Code: 0xee}
	}
	for i := range p.ins {
		p.ins[i] = Varnode{Offset: 0xdeadbeef, Space: 0xee}
	}
	for i := range p.calls {
		p.calls[i] = CallTarget{Name: "scrubbed", Arity: -1}
	}
	clear(p.opAt)
	clear(p.slots)
	for i := range p.fns {
		f := &p.fns[i]
		f.Sym.Name = "scrubbed"
		f.index = -1
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
