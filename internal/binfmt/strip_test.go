package binfmt

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"firmres/internal/errdefs"
	"firmres/internal/isa"
)

func TestStripDropsSymbols(t *testing.T) {
	b := sample()
	s := b.Strip()
	if len(s.Funcs) != 0 || len(s.DataSyms) != 0 || len(s.Vars) != 0 {
		t.Errorf("Strip left symbols behind: funcs=%d datasyms=%d vars=%d",
			len(s.Funcs), len(s.DataSyms), len(s.Vars))
	}
	if string(s.Text) != string(b.Text) || string(s.Data) != string(b.Data) {
		t.Error("Strip altered segment contents")
	}
	if s.TextBase != b.TextBase || s.DataBase != b.DataBase || s.Name != b.Name {
		t.Error("Strip altered bases or name")
	}
	if len(s.Imports) != len(b.Imports) {
		t.Fatalf("Strip changed import count: %d != %d", len(s.Imports), len(b.Imports))
	}
	for i, imp := range s.Imports {
		if imp.Name != "" || imp.NumParams != -1 {
			t.Errorf("import %d not anonymized: %+v", i, imp)
		}
		if imp.HasResult != b.Imports[i].HasResult {
			t.Errorf("import %d lost result-use bit", i)
		}
	}
	// The original must be untouched (Strip is a copy, not a mutation).
	if len(b.Funcs) == 0 || b.Imports[0].Name != "printf" {
		t.Error("Strip mutated the receiver")
	}
}

func TestStripRoundTripsThroughMarshal(t *testing.T) {
	s := sample().Strip()
	got, err := Unmarshal(s.Marshal())
	if err != nil {
		t.Fatalf("Unmarshal(stripped): %v", err)
	}
	if len(got.Imports) != 1 || got.Imports[0].NumParams != -1 {
		t.Errorf("anonymized arity did not round-trip: %+v", got.Imports)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("Validate(stripped round trip): %v", err)
	}
}

func TestCheckFuncOverlap(t *testing.T) {
	f := func(name string, addr, size uint32) FuncSym {
		return FuncSym{Name: name, Addr: addr, Size: size}
	}
	tests := []struct {
		name    string
		funcs   []FuncSym
		overlap bool
	}{
		{"empty", nil, false},
		{"disjoint", []FuncSym{f("a", 0x100, 8), f("b", 0x108, 8)}, false},
		{"disjoint unsorted", []FuncSym{f("b", 0x108, 8), f("a", 0x100, 8)}, false},
		{"gap", []FuncSym{f("a", 0x100, 8), f("b", 0x120, 8)}, false},
		{"duplicate range", []FuncSym{f("a", 0x100, 8), f("b", 0x100, 8)}, true},
		{"partial overlap", []FuncSym{f("a", 0x100, 16), f("b", 0x108, 16)}, true},
		{"nested", []FuncSym{f("a", 0x100, 32), f("b", 0x108, 8)}, true},
		{"zero-size ignored", []FuncSym{f("a", 0x100, 8), f("marker", 0x104, 0)}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := CheckFuncOverlap(tt.funcs)
			if tt.overlap && !errors.Is(err, errdefs.ErrOverlappingSymbols) {
				t.Errorf("CheckFuncOverlap = %v, want ErrOverlappingSymbols", err)
			}
			if !tt.overlap && err != nil {
				t.Errorf("CheckFuncOverlap = %v, want nil", err)
			}
		})
	}
}

func TestUnmarshalRejectsOverlappingFuncs(t *testing.T) {
	b := sample()
	// Extend text so both symbols stay inside the segment, then add a second
	// function whose range collides with main's.
	for i := 0; i < 4; i++ {
		b.Text = isa.Instruction{Op: isa.OpRet}.Encode(b.Text)
	}
	b.Funcs = append(b.Funcs, FuncSym{
		Name: "shadow", Addr: b.Funcs[0].Addr + isa.InstrSize, Size: isa.InstrSize,
	})
	_, err := Unmarshal(b.Marshal())
	if !errors.Is(err, errdefs.ErrOverlappingSymbols) {
		t.Fatalf("Unmarshal(overlapping funcs) = %v, want ErrOverlappingSymbols", err)
	}
}

// benchBinary builds a binary with n back-to-back functions for lookup
// benchmarks and the index/linear equivalence check.
func benchBinary(n int) *Binary {
	b := &Binary{TextBase: DefaultTextBase, DataBase: DefaultDataBase}
	var text []byte
	for i := 0; i < n; i++ {
		addr := DefaultTextBase + uint32(len(text))
		text = isa.Instruction{Op: isa.OpRet}.Encode(text)
		b.Funcs = append(b.Funcs, FuncSym{
			Name: fmt.Sprintf("fn_%04d", i), Addr: addr, Size: isa.InstrSize,
		})
	}
	b.Text = text
	return b
}

// TestIndexedLookupsMatchLinear cross-checks the binary-search fast path
// against the brute-force fallback used when no index is built, over a
// table indexed in place (sorted) and one indexed through a sorted copy.
func TestIndexedLookupsMatchLinear(t *testing.T) {
	indexed := benchBinary(257)
	indexed.SortSymbols()
	unsorted := benchBinary(257)
	slices.Reverse(unsorted.Funcs)
	unsorted.buildIndex()
	if unsorted.Funcs[0].Name != "fn_0256" {
		t.Fatal("indexing an unsorted table reordered Funcs")
	}
	linear := benchBinary(257) // idx nil: exercises the fallback path

	end := DefaultTextBase + uint32(len(indexed.Text))
	for addr := DefaultTextBase - 16; addr < end+16; addr += 4 {
		fl, okl := linear.FuncAt(addr)
		for _, b := range []*Binary{indexed, unsorted} {
			if fi, oki := b.FuncAt(addr); oki != okl || fi != fl {
				t.Fatalf("FuncAt(%#x): indexed (%v,%v) != linear (%v,%v)", addr, fi, oki, fl, okl)
			}
		}
	}
}

func BenchmarkFuncAt(b *testing.B) {
	bin := benchBinary(1024)
	bin.SortSymbols()
	addr := DefaultTextBase + uint32(len(bin.Text)) - isa.InstrSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bin.FuncAt(addr); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkFuncAtLinear(b *testing.B) {
	bin := benchBinary(1024) // no SortSymbols: idx stays nil
	addr := DefaultTextBase + uint32(len(bin.Text)) - isa.InstrSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bin.FuncAt(addr); !ok {
			b.Fatal("lookup failed")
		}
	}
}

func BenchmarkFuncByName(b *testing.B) {
	bin := benchBinary(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := bin.FuncByName("fn_1023"); !ok {
			b.Fatal("lookup failed")
		}
	}
}
