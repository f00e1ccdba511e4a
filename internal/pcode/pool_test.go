package pcode_test

import (
	"reflect"
	"sort"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/corpus"
	"firmres/internal/externs"
	"firmres/internal/image"
	"firmres/internal/isa"
	"firmres/internal/pcode"
	"firmres/internal/strip"
)

// corpusBinaries returns every binary executable of the 22 corpus images
// and their 22 stripped twins, the stripped ones recovered as the pipeline
// recovers them before lifting.
func corpusBinaries(t testing.TB) []*binfmt.Binary {
	t.Helper()
	var bins []*binfmt.Binary
	for id := 1; id <= 22; id++ {
		full, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		twin, err := corpus.BuildStrippedImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildStrippedImage(%d): %v", id, err)
		}
		for _, img := range []*image.Image{full, twin} {
			for _, f := range img.Executables() {
				if !f.IsBinary() {
					continue
				}
				bin, err := binfmt.Unmarshal(f.Data)
				if err != nil {
					t.Fatalf("Unmarshal(%s): %v", f.Path, err)
				}
				if strip.Needed(bin) {
					strip.Recover(bin, strip.Hints{})
				}
				bins = append(bins, bin)
			}
		}
	}
	return bins
}

// TestRecycledLiftMatchesFresh lifts every corpus binary into one
// recycled Program and requires each lift to equal a fresh LiftProgram of
// the same binary. The binaries alternate between the largest and the
// smallest left, so every lift reuses storage a larger or a smaller
// program left behind.
func TestRecycledLiftMatchesFresh(t *testing.T) {
	bins := corpusBinaries(t)
	sort.SliceStable(bins, func(i, j int) bool { return len(bins[i].Text) < len(bins[j].Text) })
	order := make([]*binfmt.Binary, 0, len(bins))
	for lo, hi := 0, len(bins)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, bins[hi])
		if lo < hi {
			order = append(order, bins[lo])
		}
	}

	got := new(pcode.Program)
	for round := 0; round < 2; round++ {
		for _, bin := range order {
			want, err := pcode.LiftProgram(bin)
			if err != nil {
				t.Fatalf("LiftProgram(%s): %v", bin.Name, err)
			}
			if err := got.Lift(bin); err != nil {
				t.Fatalf("Program.Lift(%s): %v", bin.Name, err)
			}
			comparePrograms(t, bin.Name, got, want)
		}
	}
}

// comparePrograms requires two lifts of one binary to be indistinguishable
// through every accessor the analyses use.
func comparePrograms(t *testing.T, name string, got, want *pcode.Program) {
	t.Helper()
	if got.Bin != want.Bin || len(got.Funcs) != len(want.Funcs) {
		t.Fatalf("%s: program shape differs: %d funcs, want %d", name, len(got.Funcs), len(want.Funcs))
	}
	for i, wf := range want.Funcs {
		gf := got.Funcs[i]
		where := name + "/" + wf.Name()
		if gf.Index() != i || wf.Index() != i {
			t.Errorf("%s: Index() = %d (fresh %d), want its position %d", where, gf.Index(), wf.Index(), i)
		}
		if gf.Sym != wf.Sym {
			t.Fatalf("%s: symbol %+v, want %+v", where, gf.Sym, wf.Sym)
		}
		if byAddr, ok := got.FuncAt(wf.Addr()); !ok || byAddr != gf {
			t.Errorf("%s: FuncAt does not return the function", where)
		}
		if byName, ok := got.FuncByName(wf.Name()); !ok || byName != gf {
			t.Errorf("%s: FuncByName does not return the function", where)
		}
		if !reflect.DeepEqual(gf.Ops, wf.Ops) {
			t.Fatalf("%s: ops differ from a fresh lift", where)
		}
		for addr := wf.Addr(); addr < wf.Sym.End(); addr += isa.InstrSize {
			gi, gok := gf.OpIndexAt(addr)
			wi, wok := wf.OpIndexAt(addr)
			if gi != wi || gok != wok {
				t.Errorf("%s: OpIndexAt(%#x) = %d,%t, want %d,%t", where, addr, gi, gok, wi, wok)
			}
		}
		if gf.NumLocs() != wf.NumLocs() || !reflect.DeepEqual(gf.RAMLocs(), wf.RAMLocs()) {
			t.Errorf("%s: interning differs: %d locs %v, want %d locs %v",
				where, gf.NumLocs(), gf.RAMLocs(), wf.NumLocs(), wf.RAMLocs())
		}
		for j := range wf.Ops {
			gs, gok := gf.SlotAt(j)
			ws, wok := wf.SlotAt(j)
			if gs != ws || gok != wok {
				t.Errorf("%s: SlotAt(%d) = %v,%t, want %v,%t", where, j, gs, gok, ws, wok)
			}
			op := &wf.Ops[j]
			for _, v := range append([]pcode.Varnode{op.Output}, op.Inputs...) {
				if g, w := gf.LocID(v), wf.LocID(v); g != w {
					t.Errorf("%s: LocID(%v) = %d, want %d", where, v, g, w)
				}
			}
		}
	}
}

// TestImportedCallsCarryTheirRow lifts every corpus binary and every
// stripped twin, whose imports strip.Recover has bound (corpusBinaries):
// each imported call carries the externs row of its callee's name, every
// corpus import is modelled, and no local or indirect call carries a row.
// A scrubbed release leaves no row in any call target it kept.
func TestImportedCallsCarryTheirRow(t *testing.T) {
	p := new(pcode.Program)
	imported := 0
	for _, bin := range corpusBinaries(t) {
		if err := p.Lift(bin); err != nil {
			t.Fatalf("Program.Lift(%s): %v", bin.Name, err)
		}
		var calls []*pcode.CallTarget
		for _, fn := range p.Funcs {
			for i := range fn.Ops {
				c := fn.Ops[i].Call
				if c == nil {
					continue
				}
				calls = append(calls, c)
				var want *externs.Sig
				if c.Kind == pcode.CallImported {
					imported++
					if want, _ = externs.Lookup(c.Name); want == nil {
						t.Errorf("%s/%s: import %q has no extern row", bin.Name, fn.Name(), c.Name)
					}
				}
				if c.Sig != want {
					t.Errorf("%s/%s: call of %q (kind %d) carries row %p, want %p", bin.Name, fn.Name(), c.Name, c.Kind, c.Sig, want)
				}
			}
		}
		p.Recycle(true)
		for _, c := range calls {
			if c.Sig != nil {
				t.Fatalf("%s: a scrubbed call target still carries the row of %q", bin.Name, c.Sig.Name)
			}
		}
	}
	if imported == 0 {
		t.Fatal("the corpus lifted no imported call")
	}
}

// TestPoolLiftErrorMatchesFresh lifts a corrupt binary into a recycled
// Program: the error is the one a fresh lift reports, and the next lift,
// which reuses the failed lift's storage, still equals a fresh one.
func TestPoolLiftErrorMatchesFresh(t *testing.T) {
	bins := corpusBinaries(t)
	good := bins[0]
	bad := *good
	bad.Funcs = append([]binfmt.FuncSym(nil), good.Funcs...)
	bad.Funcs[len(bad.Funcs)-1].Size = 1 << 20 // beyond the text section

	got := new(pcode.Program)
	_, wantErr := pcode.LiftProgram(&bad)
	if err := got.Lift(&bad); err == nil || wantErr == nil || err.Error() != wantErr.Error() {
		t.Fatalf("Program.Lift(corrupt) error = %v, want %v", err, wantErr)
	}
	if err := got.Lift(good); err != nil {
		t.Fatalf("Program.Lift: %v", err)
	}
	want, err := pcode.LiftProgram(good)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	comparePrograms(t, good.Name, got, want)
}

// BenchmarkRecycledLift lifts every corpus binary into one Program,
// recycled between lifts as a set's release recycles it: the CPU a warm
// set spends lifting, per pass over the 172 binaries.
func BenchmarkRecycledLift(b *testing.B) {
	bins := corpusBinaries(b)
	p := new(pcode.Program)
	pass := func() {
		for _, bin := range bins {
			if err := p.Lift(bin); err != nil {
				b.Fatal(err)
			}
			p.Recycle(false)
		}
	}
	pass()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass()
	}
}
