package pcode

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"firmres/internal/binfmt"
	"firmres/internal/isa"
)

// Program is the fully-lifted P-Code view of one binary: every function's
// listing plus whole-program callsite indexes. It is the unit of analysis
// for the call graph, the handler identification, and the taint engine.
type Program struct {
	Bin    *binfmt.Binary
	Funcs  []*Function
	byAddr map[uint32]*Function
	byName map[string]*Function

	fns   []Function // the function shells, in symbol order; Funcs points into it
	slabs            // the storage every function's arrays are carved from
}

// LiftProgram lifts every function symbol of the binary into storage of
// its own: the pool-less case of Pool.LiftProgram.
func LiftProgram(bin *binfmt.Binary) (*Program, error) {
	return (*Pool)(nil).LiftProgram(bin)
}

// lift fills p with the P-Code of every function of bin, reusing the
// slabs, shells and index maps a recycled p kept.
func (p *Program) lift(bin *binfmt.Binary) error {
	sc := liftScratch.Get().(*scratch)
	defer liftScratch.Put(sc)
	sc.instrs, sc.sizes = sc.instrs[:0], sc.sizes[:0]
	if n := instrCount(bin); cap(sc.instrs) < n {
		sc.instrs = make([]isa.Instruction, 0, n)
	}
	// Decode every function first, so each slab is sized once, exactly. A
	// function that fails to decode ends the pass, but the functions before
	// it still lift first, so the error reported is the first in symbol
	// order.
	var total size
	var decodeErr error
	for _, sym := range bin.Funcs {
		if decodeErr = sc.decode(bin, sym); decodeErr != nil {
			break
		}
		total.add(sc.sizes[len(sc.sizes)-1])
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
		p.byName = make(map[string]*Function, len(bin.Funcs))
	} else {
		clear(p.byAddr)
		clear(p.byName)
	}
	instrs := sc.instrs
	for i, n := range sc.sizes {
		sym, f := bin.Funcs[i], &p.fns[i]
		if err := f.lift(bin, sym, instrs[:n.instrs], n, &p.slabs); err != nil {
			return err
		}
		instrs = instrs[n.instrs:]
		p.Funcs = append(p.Funcs, f)
		p.byAddr[sym.Addr] = f
		p.byName[sym.Name] = f
	}
	if decodeErr != nil {
		return decodeErr
	}
	sort.Slice(p.Funcs, func(i, j int) bool { return p.Funcs[i].Addr() < p.Funcs[j].Addr() })
	return nil
}

// instrCount returns the number of instructions decoding bin's function
// symbols takes, capped at the text section's: symbol sizes come from the
// binary and are not trusted.
func instrCount(bin *binfmt.Binary) int {
	n := 0
	for _, sym := range bin.Funcs {
		n += int(sym.Size / isa.InstrSize)
	}
	return min(n, len(bin.Text)/isa.InstrSize)
}

// Pool is a free list of lifted programs. A program it lifts has exactly
// one owner, who hands it back with Release once nothing reads it any
// more; the next LiftProgram reuses its slabs, function shells and index
// maps instead of allocating them. The list keeps at most the number of
// programs the pool was built for (NewPool) and leaves any further release
// to the garbage collector, so a nil or zero Pool allocates every program
// and drops released ones. Safe for concurrent use.
type Pool struct {
	mu    sync.Mutex
	free  []*Program
	max   int
	scrub atomic.Bool // overwrite released storage (ScrubReleased)
}

// NewPool returns an empty pool that keeps at most max released programs.
func NewPool(max int) *Pool { return &Pool{max: max} }

// LiftProgram lifts every function symbol of the binary, into recycled
// storage when the pool holds some.
func (pl *Pool) LiftProgram(bin *binfmt.Binary) (*Program, error) {
	p := pl.get()
	if err := p.lift(bin); err != nil {
		pl.Release(p)
		return nil, fmt.Errorf("pcode: program %q: %w", bin.Name, err)
	}
	return p, nil
}

func (pl *Pool) get() *Program {
	if pl != nil {
		pl.mu.Lock()
		defer pl.mu.Unlock()
		if n := len(pl.free); n > 0 {
			p := pl.free[n-1]
			pl.free[n-1] = nil
			pl.free = pl.free[:n-1]
			return p
		}
	}
	return new(Program)
}

// Release hands p back for reuse. Only p's owner may release it, once:
// nothing may read p, its functions, or any op, varnode or call target
// taken from them afterwards.
func (pl *Pool) Release(p *Program) {
	if pl == nil || p == nil {
		return
	}
	p.Bin = nil
	if pl.scrub.Load() {
		p.scrubStorage()
	}
	pl.mu.Lock()
	if len(pl.free) < pl.max {
		pl.free = append(pl.free, p)
	}
	pl.mu.Unlock()
}

// ScrubReleased makes Release overwrite each released program's storage
// with garbage, so a reader that still holds a released program computes
// nonsense instead of a plausible stale answer. Tests use it to prove that
// nothing outlives its release.
func (pl *Pool) ScrubReleased() { pl.scrub.Store(true) }

// scrubStorage overwrites p's ops, inputs, call targets and tables.
func (p *Program) scrubStorage() {
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
		clear(f.locs)
		clear(f.ramIDs)
		clear(f.locIdx)
	}
	clear(p.byAddr)
	clear(p.byName)
}

// FuncAt returns the lifted function whose entry is addr.
func (p *Program) FuncAt(addr uint32) (*Function, bool) {
	f, ok := p.byAddr[addr]
	return f, ok
}

// FuncByName returns the lifted function with the given symbol name.
func (p *Program) FuncByName(name string) (*Function, bool) {
	f, ok := p.byName[name]
	return f, ok
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
