package pcode_test

import (
	"sort"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/corpus"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// TestOpIndexAtMatchesReference checks OpIndexAt against a reference map
// built here from the lifted ops: every instruction address of a function
// maps to the index of the first op at or after it (a NOP lifts to no op,
// so a trailing NOP maps to len(Ops)). Every byte address from two slots
// before the entry to two slots past the end is probed, so misaligned,
// pre-entry and one-past-end addresses are covered, and so are the
// addresses of every other function, which must have no index.
func TestOpIndexAtMatchesReference(t *testing.T) {
	var progs []*pcode.Program
	for id := 1; id <= 22; id++ {
		bin, err := corpus.EmitDeviceCloudBinary(corpus.Device(id))
		if err != nil {
			t.Fatalf("EmitDeviceCloudBinary(%d): %v", id, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("LiftProgram(%d): %v", id, err)
		}
		progs = append(progs, prog)
	}

	a := asm.New("nops")
	f := a.Func("nop_edges", 1, true)
	f.Nop()
	f.LI(isa.R2, 1)
	f.Nop()
	f.Nop()
	f.Add(isa.R1, isa.R1, isa.R2)
	f.Ret()
	f.Nop()
	f.Nop()
	g := a.Func("after", 0, true)
	g.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	nopProg, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	progs = append(progs, nopProg)

	probes := 0
	for _, prog := range progs {
		for _, fn := range prog.Funcs {
			ref := map[uint32]int{}
			for addr := fn.Addr(); addr < fn.Sym.End(); addr += isa.InstrSize {
				ref[addr] = sort.Search(len(fn.Ops), func(i int) bool { return fn.Ops[i].Addr >= addr })
			}
			check := func(addr uint32) {
				probes++
				want, wantOK := ref[addr]
				got, ok := fn.OpIndexAt(addr)
				if ok != wantOK || (ok && got != want) {
					t.Errorf("%s: OpIndexAt(%#x) = (%d, %v), want (%d, %v)", fn.Name(), addr, got, ok, want, wantOK)
				}
			}
			lo := fn.Addr() - min(fn.Addr(), 2*isa.InstrSize)
			for addr := lo; addr < fn.Sym.End()+2*isa.InstrSize; addr++ {
				check(addr)
			}
			for _, other := range prog.Funcs {
				if other != fn {
					check(other.Addr())
					check(other.Sym.End() - isa.InstrSize)
				}
			}
		}
	}

	fn, ok := nopProg.FuncByName("nop_edges")
	if !ok {
		t.Fatal("nop_edges not lifted")
	}
	if got, ok := fn.OpIndexAt(fn.Sym.End() - isa.InstrSize); !ok || got != len(fn.Ops) {
		t.Errorf("trailing NOP: OpIndexAt = (%d, %v), want (%d, true)", got, ok, len(fn.Ops))
	}
	if probes == 0 {
		t.Fatal("no addresses probed")
	}
}
