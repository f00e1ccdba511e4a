package strip

import (
	"fmt"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/isa"
)

// at returns the absolute text address of an instruction slot.
func at(slot int) int32 {
	return int32(binfmt.DefaultTextBase + uint32(slot*isa.InstrSize))
}

// binWith assembles a stripped binary from an instruction list.
func binWith(imports []binfmt.Import, data []byte, ins ...isa.Instruction) *binfmt.Binary {
	var text []byte
	for _, in := range ins {
		text = in.Encode(text)
	}
	return &binfmt.Binary{
		TextBase: binfmt.DefaultTextBase,
		Text:     text,
		DataBase: binfmt.DefaultDataBase,
		Data:     data,
		Imports:  imports,
	}
}

// extents renders recovered boundaries as "slotStart+slots" strings for
// compact comparison.
func extents(syms []binfmt.FuncSym) []string {
	out := make([]string, len(syms))
	for i, s := range syms {
		start := int(s.Addr-binfmt.DefaultTextBase) / isa.InstrSize
		out[i] = fmt.Sprintf("%d+%d", start, int(s.Size)/isa.InstrSize)
	}
	return out
}

func TestRecoverBoundaries(t *testing.T) {
	exitImport := []binfmt.Import{{NumParams: -1, HasResult: false}}
	tests := []struct {
		name string
		bin  *binfmt.Binary
		want []string // "startSlot+sizeSlots" in address order
	}{
		{
			name: "back-to-back functions, no padding",
			bin: binWith(nil, nil,
				isa.Instruction{Op: isa.OpCall, Imm: at(2)}, // A: call B
				isa.Instruction{Op: isa.OpRet},              // A: ret
				isa.Instruction{Op: isa.OpRet},              // B: ret
			),
			want: []string{"0+2", "2+1"},
		},
		{
			name: "tail call does not absorb the target",
			bin: binWith(nil, nil,
				// A loads B's address (address-taken seed) then jumps to it:
				// the jump is a tail call, so A must end at B's entry.
				isa.Instruction{Op: isa.OpLI, Rd: isa.R1, Imm: at(2)},
				isa.Instruction{Op: isa.OpJmp, Imm: at(2)},
				isa.Instruction{Op: isa.OpRet}, // B
			),
			want: []string{"0+2", "2+1"},
		},
		{
			name: "noreturn ending clamps at the next entry",
			bin: binWith(exitImport, nil,
				// A calls C (making slot 2 a seed) then invokes a noreturn
				// extern with no ret of its own; the fallthrough onto C's
				// entry is a boundary, not a body extension.
				isa.Instruction{Op: isa.OpCall, Imm: at(2)},
				isa.Instruction{Op: isa.OpCallI, Imm: 0, Rs1: 0},
				isa.Instruction{Op: isa.OpRet}, // C
			),
			want: []string{"0+2", "2+1"},
		},
		{
			name: "gap-fill recovers uncalled functions",
			bin: binWith(nil, nil,
				isa.Instruction{Op: isa.OpRet},                    // A
				isa.Instruction{Op: isa.OpLI, Rd: isa.R2, Imm: 5}, // orphan: never called
				isa.Instruction{Op: isa.OpRet},
			),
			want: []string{"0+1", "1+2"},
		},
		{
			name: "branch keeps both arms in one body",
			bin: binWith(nil, nil,
				isa.Instruction{Op: isa.OpBeq, Rs1: isa.R1, Rs2: isa.R0, Imm: at(2)},
				isa.Instruction{Op: isa.OpRet},
				isa.Instruction{Op: isa.OpRet},
			),
			want: []string{"0+3"},
		},
		{
			name: "data-range constant is not a seed",
			bin: binWith(nil, nil,
				// The immediate points into the data segment, not text: no
				// address-taken seed, one function.
				isa.Instruction{Op: isa.OpLI, Rd: isa.R1, Imm: int32(binfmt.DefaultDataBase)},
				isa.Instruction{Op: isa.OpRet},
			),
			want: []string{"0+2"},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := extents(recoverBoundaries(tt.bin, scanText(tt.bin)))
			if fmt.Sprint(got) != fmt.Sprint(tt.want) {
				t.Errorf("boundaries = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestRecoverBoundariesEmptyText(t *testing.T) {
	bin := binWith(nil, nil)
	if got := recoverBoundaries(bin, scanText(bin)); got != nil {
		t.Errorf("recoverBoundaries(empty) = %v, want nil", got)
	}
}

func TestInferArity(t *testing.T) {
	anon := []binfmt.Import{{NumParams: -1, HasResult: true}}
	fixed := []binfmt.Import{{Name: "hmac_sha256", NumParams: 3, HasResult: true}}
	tests := []struct {
		name string
		bin  *binfmt.Binary
		want int
	}{
		{
			name: "read-before-def counts as incoming",
			bin: binWith(nil, nil,
				// R2 is read with no prior definition: at least two params.
				isa.Instruction{Op: isa.OpMov, Rd: isa.R7, Rs1: isa.R2},
				isa.Instruction{Op: isa.OpRet},
			),
			want: 2,
		},
		{
			name: "defined-then-read is local, arity zero",
			bin: binWith(nil, nil,
				isa.Instruction{Op: isa.OpLI, Rd: isa.R1, Imm: 7},
				isa.Instruction{Op: isa.OpMov, Rd: isa.R2, Rs1: isa.R1},
				isa.Instruction{Op: isa.OpRet},
			),
			want: 0,
		},
		{
			name: "anonymized import uses callsite arity",
			bin: binWith(anon, nil,
				// Arity-2 call reads R1 and R2 straight from the incoming args.
				isa.Instruction{Op: isa.OpCallI, Imm: 0, Rs1: 2},
				isa.Instruction{Op: isa.OpRet},
			),
			want: 2,
		},
		{
			name: "named import uses declared arity",
			bin: binWith(fixed, nil,
				isa.Instruction{Op: isa.OpCallI, Imm: 0, Rs1: 0},
				isa.Instruction{Op: isa.OpRet},
			),
			want: 3,
		},
		{
			name: "call result defines R1 before its read",
			bin: binWith(anon, nil,
				isa.Instruction{Op: isa.OpCallI, Imm: 0, Rs1: 0}, // defines R1
				isa.Instruction{Op: isa.OpMov, Rd: isa.R7, Rs1: isa.R1},
				isa.Instruction{Op: isa.OpRet},
			),
			want: 0,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			syms := recoverBoundaries(tt.bin, scanText(tt.bin))
			if len(syms) != 1 {
				t.Fatalf("expected one function, got %v", extents(syms))
			}
			if syms[0].NumParams != tt.want {
				t.Errorf("arity = %d, want %d", syms[0].NumParams, tt.want)
			}
		})
	}
}

func TestRecoverStrings(t *testing.T) {
	tests := []struct {
		name string
		data []byte
		want []binfmt.DataSym
	}{
		{"empty", nil, nil},
		{"zero-filled buffer stays symbol-free", make([]byte, 32), nil},
		{
			name: "terminated run, size includes the NUL",
			data: []byte("GET /register\x00"),
			want: []binfmt.DataSym{{Addr: binfmt.DefaultDataBase, Size: 14, Kind: binfmt.DataString}},
		},
		{
			name: "control whitespace is part of the run",
			data: []byte("line1\n\tline2\r\x00"),
			want: []binfmt.DataSym{{Addr: binfmt.DefaultDataBase, Size: 14, Kind: binfmt.DataString}},
		},
		{
			name: "unterminated trailing run is ignored",
			data: []byte("key\x00tail"),
			want: []binfmt.DataSym{{Addr: binfmt.DefaultDataBase, Size: 4, Kind: binfmt.DataString}},
		},
		{
			name: "runs split by binary bytes",
			data: []byte("\x01ab\x00\xffcd\x00"),
			want: []binfmt.DataSym{
				{Addr: binfmt.DefaultDataBase + 1, Size: 3, Kind: binfmt.DataString},
				{Addr: binfmt.DefaultDataBase + 5, Size: 3, Kind: binfmt.DataString},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got := recoverStrings(&binfmt.Binary{DataBase: binfmt.DefaultDataBase, Data: tt.data})
			if fmt.Sprint(got) != fmt.Sprint(tt.want) {
				t.Errorf("strings = %+v, want %+v", got, tt.want)
			}
		})
	}
}

func TestRecoverIsNoopOnSymbolFullBinary(t *testing.T) {
	bin := binWith([]binfmt.Import{{Name: "printf", NumParams: -1, HasResult: true}}, nil,
		isa.Instruction{Op: isa.OpRet})
	bin.Funcs = []binfmt.FuncSym{{Name: "main", Addr: bin.TextBase, Size: isa.InstrSize}}
	bin.DataSyms = []binfmt.DataSym{}
	if Needed(bin) {
		t.Fatal("Needed() true for a symbol-full binary")
	}
	st := Recover(bin, Hints{})
	if st.FuncsRecovered != 0 || st.ExternsTotal != 0 {
		t.Errorf("Recover touched a symbol-full binary: %+v", st)
	}
	if bin.Funcs[0].Name != "main" {
		t.Error("Recover clobbered existing symbols")
	}
}

func TestNeeded(t *testing.T) {
	stripped := binWith([]binfmt.Import{{NumParams: -1}}, nil, isa.Instruction{Op: isa.OpRet})
	if !Needed(stripped) {
		t.Error("Needed(stripped) = false")
	}
	partial := binWith([]binfmt.Import{{Name: "printf", NumParams: -1}}, nil, isa.Instruction{Op: isa.OpRet})
	if !Needed(partial) { // funcs missing even though imports are named
		t.Error("Needed(partial) = false")
	}
	partial.Funcs = []binfmt.FuncSym{{Name: "main", Addr: partial.TextBase, Size: isa.InstrSize}}
	if Needed(partial) {
		t.Error("Needed(symbol-full) = true")
	}
	partial.Data = []byte("cloud.example.com\x00")
	if !Needed(partial) { // data symbols missing over a non-empty data segment
		t.Error("Needed(no data symbols) = false")
	}
	if st := Recover(partial, Hints{}); st.StringsRecovered == 0 {
		t.Errorf("Recover found no strings where Needed said it would: %+v", st)
	}
	if Needed(partial) {
		t.Error("Needed after Recover = true")
	}
}

// TestRecoverBoundariesManyWalks: 300 functions no call reaches are
// recovered by gap-filling, which re-walks every seed each round — 45,150
// walks, so the grower's one-byte stamps wrap many times, and in the
// rounds with 255 seeds a slot's stamp from the round before equals the
// new walk's. Every function must still come back whole.
func TestRecoverBoundariesManyWalks(t *testing.T) {
	const n = 300
	var ins []isa.Instruction
	want := make([]string, n)
	for i := range want {
		ins = append(ins, isa.Instruction{Op: isa.OpNop}, isa.Instruction{Op: isa.OpRet})
		want[i] = fmt.Sprintf("%d+2", 2*i)
	}
	bin := binWith(nil, nil, ins...)
	if got := extents(recoverBoundaries(bin, scanText(bin))); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("boundaries = %v, want %d two-slot functions", got, n)
	}
}
