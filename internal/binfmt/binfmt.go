// Package binfmt defines the ELF-lite executable container used by the
// synthetic firmware corpus.
//
// A Binary holds a text segment of isa instructions, a data segment, an
// import table naming the external (libc-like) functions the program calls,
// a function symbol table, data-object symbols, and local-variable debug
// records. The debug records play the role that Ghidra's decompiler variable
// recovery plays for real firmware: they give the semantic-enrichment stage
// (internal/semantics) names for parameters and locals.
//
// The on-disk encoding is a sectioned little-endian format with a magic
// header and explicit lengths so that corrupt or truncated files are
// detected rather than misparsed.
package binfmt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"firmres/internal/errdefs"
	"firmres/internal/isa"
)

// Magic identifies the container format ("FirmRES Binary v1").
const Magic = "FRB1"

// Default segment base addresses. Text and data live in disjoint address
// ranges so that the lifter can classify an immediate as a data pointer by
// range alone, the way Ghidra classifies constants that fall inside mapped
// data segments.
const (
	DefaultTextBase uint32 = 0x0040_0000
	DefaultDataBase uint32 = 0x1000_0000
)

// Import is one entry of the import table: an external function the program
// may call with OpCallI. NumParams and HasResult describe the calling
// convention (arguments in R1..R6, result in R1) and stand in for the
// function-signature databases real tools ship for libc.
type Import struct {
	Name      string
	NumParams int
	HasResult bool
}

// FuncSym describes one local function: where its code lives, its arity, and
// whether it produces a result in R1.
type FuncSym struct {
	Name      string
	Addr      uint32 // absolute address of the first instruction
	Size      uint32 // size of the function body in bytes
	NumParams int
	HasResult bool
}

// End returns the address one past the last byte of the function body.
func (f FuncSym) End() uint32 { return f.Addr + f.Size }

// DataKind classifies a data-segment object.
type DataKind uint8

// Data object kinds.
const (
	DataBytes  DataKind = iota + 1 // raw bytes / numeric data
	DataString                     // NUL-terminated string
)

// DataSym describes one named object in the data segment.
type DataSym struct {
	Name string
	Addr uint32
	Size uint32
	Kind DataKind
}

// VarKind classifies a debug variable record.
type VarKind uint8

// Debug variable kinds.
const (
	VarLocal VarKind = iota + 1 // local variable held in a register
	VarParam                    // incoming parameter held in a register
)

// LocalVar is a debug record naming the variable held in a register within
// one function. It emulates decompiler variable recovery.
type LocalVar struct {
	FuncAddr uint32 // owning function
	Reg      isa.Reg
	Kind     VarKind
	Name     string
}

// Binary is a parsed executable.
type Binary struct {
	Name     string
	TextBase uint32
	Text     []byte
	DataBase uint32
	Data     []byte
	Imports  []Import
	Funcs    []FuncSym
	DataSyms []DataSym
	Vars     []LocalVar

	// idx accelerates FuncAt/FuncByName. It is built eagerly by Unmarshal
	// and SortSymbols (never lazily, so concurrent readers see a fixed
	// pointer); code that mutates Funcs afterwards must call SortSymbols to
	// rebuild it. A nil idx falls back to the original linear scans.
	idx *symIndex
}

// symIndex is the derived lookup structure over the function symbol table.
type symIndex struct {
	byAddr []FuncSym      // address-sorted copy for binary search
	byName map[string]int // name -> first index in Funcs
}

// buildIndex (re)derives the lookup index from the current symbol table.
func (b *Binary) buildIndex() {
	ix := &symIndex{
		byAddr: append([]FuncSym(nil), b.Funcs...),
		byName: make(map[string]int, len(b.Funcs)),
	}
	sort.SliceStable(ix.byAddr, func(i, j int) bool { return ix.byAddr[i].Addr < ix.byAddr[j].Addr })
	for i, f := range b.Funcs {
		if _, dup := ix.byName[f.Name]; !dup {
			ix.byName[f.Name] = i
		}
	}
	b.idx = ix
}

// FuncAt returns the function symbol covering the given address, if any.
func (b *Binary) FuncAt(addr uint32) (FuncSym, bool) {
	if ix := b.idx; ix != nil {
		// First symbol starting after addr; its predecessor is the only
		// candidate that can cover addr (ranges are non-overlapping).
		i := sort.Search(len(ix.byAddr), func(i int) bool { return ix.byAddr[i].Addr > addr })
		if i > 0 {
			if f := ix.byAddr[i-1]; addr < f.End() {
				return f, true
			}
		}
		return FuncSym{}, false
	}
	for _, f := range b.Funcs {
		if addr >= f.Addr && addr < f.End() {
			return f, true
		}
	}
	return FuncSym{}, false
}

// FuncByName returns the function symbol with the given name, if any.
func (b *Binary) FuncByName(name string) (FuncSym, bool) {
	if ix := b.idx; ix != nil {
		if i, ok := ix.byName[name]; ok {
			return b.Funcs[i], true
		}
		return FuncSym{}, false
	}
	for _, f := range b.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return FuncSym{}, false
}

// ImportIndex returns the import-table index of the named external function.
func (b *Binary) ImportIndex(name string) (int, bool) {
	for i, imp := range b.Imports {
		if imp.Name == name {
			return i, true
		}
	}
	return 0, false
}

// InText reports whether addr falls inside the text segment.
func (b *Binary) InText(addr uint32) bool {
	return addr >= b.TextBase && addr < b.TextBase+uint32(len(b.Text))
}

// InData reports whether addr falls inside the data segment.
func (b *Binary) InData(addr uint32) bool {
	return addr >= b.DataBase && addr < b.DataBase+uint32(len(b.Data))
}

// StringAt reads a NUL-terminated string from the data segment at addr.
func (b *Binary) StringAt(addr uint32) (string, bool) {
	if !b.InData(addr) {
		return "", false
	}
	off := int(addr - b.DataBase)
	end := bytes.IndexByte(b.Data[off:], 0)
	if end < 0 {
		return "", false
	}
	return string(b.Data[off : off+end]), true
}

// DataSymAt returns the data symbol covering addr, if any.
func (b *Binary) DataSymAt(addr uint32) (DataSym, bool) {
	for _, s := range b.DataSyms {
		if addr >= s.Addr && addr < s.Addr+s.Size {
			return s, true
		}
	}
	return DataSym{}, false
}

// VarName returns the debug name for the variable held in reg inside the
// function at funcAddr, if a record exists.
func (b *Binary) VarName(funcAddr uint32, reg isa.Reg) (LocalVar, bool) {
	for _, v := range b.Vars {
		if v.FuncAddr == funcAddr && v.Reg == reg {
			return v, true
		}
	}
	return LocalVar{}, false
}

// Instructions decodes the entire text segment.
func (b *Binary) Instructions() ([]isa.Instruction, error) {
	return isa.DecodeAll(b.Text)
}

// InstructionAt decodes the single instruction at an absolute address.
func (b *Binary) InstructionAt(addr uint32) (isa.Instruction, error) {
	if !b.InText(addr) {
		return isa.Instruction{}, fmt.Errorf("binfmt: address %#x outside text segment", addr)
	}
	off := addr - b.TextBase
	if off%isa.InstrSize != 0 {
		return isa.Instruction{}, fmt.Errorf("binfmt: misaligned instruction address %#x", addr)
	}
	return isa.Decode(b.Text[off:])
}

// Validate performs structural sanity checks: segment alignment, function
// symbols inside text, data symbols inside data, import references in range,
// and branch/call targets inside the text segment.
func (b *Binary) Validate() error {
	if len(b.Text)%isa.InstrSize != 0 {
		return fmt.Errorf("binfmt: text length %d misaligned", len(b.Text))
	}
	if b.TextBase < b.DataBase && b.TextBase+uint32(len(b.Text)) > b.DataBase {
		return fmt.Errorf("binfmt: text and data segments overlap")
	}
	for _, f := range b.Funcs {
		if !b.InText(f.Addr) || f.End() > b.TextBase+uint32(len(b.Text)) {
			return fmt.Errorf("binfmt: function %q outside text segment", f.Name)
		}
		if f.Size%isa.InstrSize != 0 {
			return fmt.Errorf("binfmt: function %q has misaligned size %d", f.Name, f.Size)
		}
	}
	for _, s := range b.DataSyms {
		if !b.InData(s.Addr) {
			return fmt.Errorf("binfmt: data symbol %q outside data segment", s.Name)
		}
	}
	instrs, err := b.Instructions()
	if err != nil {
		return err
	}
	for i, in := range instrs {
		addr := b.TextBase + uint32(i*isa.InstrSize)
		switch {
		case in.Op.IsBranch() || in.Op == isa.OpJmp || in.Op == isa.OpCall:
			if !b.InText(uint32(in.Imm)) {
				return fmt.Errorf("binfmt: %s at %#x targets %#x outside text", in.Op, addr, uint32(in.Imm))
			}
		case in.Op == isa.OpCallI:
			if in.Imm < 0 || int(in.Imm) >= len(b.Imports) {
				return fmt.Errorf("binfmt: calli at %#x references import #%d of %d", addr, in.Imm, len(b.Imports))
			}
		}
	}
	return nil
}

// SortSymbols orders function and data symbols by address and rebuilds the
// lookup index; analyses assume this order for binary search and
// deterministic iteration. Code that mutates Funcs (the stripped-mode
// recovery pass) must call this afterwards so stale index entries never
// survive a rewrite.
func (b *Binary) SortSymbols() {
	sort.Slice(b.Funcs, func(i, j int) bool { return b.Funcs[i].Addr < b.Funcs[j].Addr })
	sort.Slice(b.DataSyms, func(i, j int) bool { return b.DataSyms[i].Addr < b.DataSyms[j].Addr })
	b.buildIndex()
}

// CheckFuncOverlap reports the first pair of function symbols whose address
// ranges overlap (or duplicate each other). Zero-size symbols cannot overlap
// anything.
func CheckFuncOverlap(funcs []FuncSym) error {
	sorted := append([]FuncSym(nil), funcs...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Addr < sorted[j].Addr })
	for i := 1; i < len(sorted); i++ {
		prev, cur := sorted[i-1], sorted[i]
		if prev.Size == 0 || cur.Size == 0 {
			continue
		}
		if cur.Addr < prev.End() {
			return fmt.Errorf("%w: %q [%#x,%#x) and %q [%#x,%#x)",
				errdefs.ErrOverlappingSymbols,
				prev.Name, prev.Addr, prev.End(), cur.Name, cur.Addr, cur.End())
		}
	}
	return nil
}

// Strip returns a symbol-free copy of the binary, modeling a stripped
// firmware executable: the function symbol table, data-object symbols, and
// debug variable records are dropped, and import entries keep only their
// observable calling convention (result use) — names and declared arities
// are gone, exactly what a stripped ELF's PLT stubs would reveal. NumParams
// is set to -1 (externs.Variadic), so the lifter falls back to the
// per-callsite arity encoded in the instruction stream.
func (b *Binary) Strip() *Binary {
	s := &Binary{
		Name:     b.Name,
		TextBase: b.TextBase,
		Text:     append([]byte(nil), b.Text...),
		DataBase: b.DataBase,
		Data:     append([]byte(nil), b.Data...),
	}
	for _, imp := range b.Imports {
		s.Imports = append(s.Imports, Import{NumParams: -1, HasResult: imp.HasResult})
	}
	return s
}

const (
	sectText = iota + 1
	sectData
	sectImports
	sectFuncs
	sectDataSyms
	sectVars
	sectName
)

// Marshal serializes the binary to its on-disk representation.
func (b *Binary) Marshal() []byte {
	var out bytes.Buffer
	out.WriteString(Magic)
	writeU32(&out, b.TextBase)
	writeU32(&out, b.DataBase)

	writeSection(&out, sectName, func(w *bytes.Buffer) { writeStr(w, b.Name) })
	writeSection(&out, sectText, func(w *bytes.Buffer) { w.Write(b.Text) })
	writeSection(&out, sectData, func(w *bytes.Buffer) { w.Write(b.Data) })
	writeSection(&out, sectImports, func(w *bytes.Buffer) {
		writeU32(w, uint32(len(b.Imports)))
		for _, imp := range b.Imports {
			writeStr(w, imp.Name)
			writeU32(w, uint32(imp.NumParams))
			writeBool(w, imp.HasResult)
		}
	})
	writeSection(&out, sectFuncs, func(w *bytes.Buffer) {
		writeU32(w, uint32(len(b.Funcs)))
		for _, f := range b.Funcs {
			writeStr(w, f.Name)
			writeU32(w, f.Addr)
			writeU32(w, f.Size)
			writeU32(w, uint32(f.NumParams))
			writeBool(w, f.HasResult)
		}
	})
	writeSection(&out, sectDataSyms, func(w *bytes.Buffer) {
		writeU32(w, uint32(len(b.DataSyms)))
		for _, s := range b.DataSyms {
			writeStr(w, s.Name)
			writeU32(w, s.Addr)
			writeU32(w, s.Size)
			w.WriteByte(byte(s.Kind))
		}
	})
	writeSection(&out, sectVars, func(w *bytes.Buffer) {
		writeU32(w, uint32(len(b.Vars)))
		for _, v := range b.Vars {
			writeU32(w, v.FuncAddr)
			w.WriteByte(byte(v.Reg))
			w.WriteByte(byte(v.Kind))
			writeStr(w, v.Name)
		}
	})
	return out.Bytes()
}

// Unmarshal parses an on-disk binary image.
//
// Ownership: Unmarshal is zero-copy — Text and Data alias sub-slices of
// raw rather than copying the section bytes (capacity-clamped so appends
// reallocate). The caller must treat raw as immutable for the lifetime of
// the returned Binary; the pipeline only ever reads section bytes
// (lifting decodes Text, string recovery scans Data), and raw itself
// aliases the unpacked image buffer (see image.Unpack), so one firmware
// buffer backs the whole analysis. Mutate-after-parse callers (e.g. fault
// injectors) must corrupt the buffer before parsing, or copy first.
func Unmarshal(raw []byte) (*Binary, error) {
	r := &reader{buf: raw}
	magic, err := r.bytes(len(Magic))
	if err != nil || string(magic) != Magic {
		return nil, fmt.Errorf("binfmt: bad magic")
	}
	b := &Binary{}
	if b.TextBase, err = r.u32(); err != nil {
		return nil, fmt.Errorf("binfmt: header: %w", err)
	}
	if b.DataBase, err = r.u32(); err != nil {
		return nil, fmt.Errorf("binfmt: header: %w", err)
	}
	for !r.done() {
		id, body, err := r.section()
		if err != nil {
			return nil, fmt.Errorf("binfmt: section: %w", err)
		}
		s := &reader{buf: body}
		switch id {
		case sectName:
			if b.Name, err = s.str(); err != nil {
				return nil, fmt.Errorf("binfmt: name: %w", err)
			}
		case sectText:
			b.Text = body[:len(body):len(body)] // alias raw, capacity-clamped
		case sectData:
			b.Data = body[:len(body):len(body)] // alias raw, capacity-clamped
		case sectImports:
			n, err := s.u32()
			if err != nil {
				return nil, fmt.Errorf("binfmt: imports: %w", err)
			}
			if err := checkCount(n, len(body)); err != nil {
				return nil, fmt.Errorf("binfmt: imports: %w", err)
			}
			b.Imports = make([]Import, 0, n)
			for i := uint32(0); i < n; i++ {
				var imp Import
				if imp.Name, err = s.str(); err != nil {
					return nil, fmt.Errorf("binfmt: import %d: %w", i, err)
				}
				np, err := s.u32()
				if err != nil {
					return nil, fmt.Errorf("binfmt: import %d: %w", i, err)
				}
				imp.NumParams = int(int32(np))
				if imp.HasResult, err = s.boolean(); err != nil {
					return nil, fmt.Errorf("binfmt: import %d: %w", i, err)
				}
				b.Imports = append(b.Imports, imp)
			}
		case sectFuncs:
			n, err := s.u32()
			if err != nil {
				return nil, fmt.Errorf("binfmt: funcs: %w", err)
			}
			if err := checkCount(n, len(body)); err != nil {
				return nil, fmt.Errorf("binfmt: funcs: %w", err)
			}
			b.Funcs = make([]FuncSym, 0, n)
			for i := uint32(0); i < n; i++ {
				var f FuncSym
				if f.Name, err = s.str(); err != nil {
					return nil, fmt.Errorf("binfmt: func %d: %w", i, err)
				}
				if f.Addr, err = s.u32(); err != nil {
					return nil, fmt.Errorf("binfmt: func %d: %w", i, err)
				}
				if f.Size, err = s.u32(); err != nil {
					return nil, fmt.Errorf("binfmt: func %d: %w", i, err)
				}
				np, err := s.u32()
				if err != nil {
					return nil, fmt.Errorf("binfmt: func %d: %w", i, err)
				}
				f.NumParams = int(int32(np))
				if f.HasResult, err = s.boolean(); err != nil {
					return nil, fmt.Errorf("binfmt: func %d: %w", i, err)
				}
				b.Funcs = append(b.Funcs, f)
			}
		case sectDataSyms:
			n, err := s.u32()
			if err != nil {
				return nil, fmt.Errorf("binfmt: data symbols: %w", err)
			}
			if err := checkCount(n, len(body)); err != nil {
				return nil, fmt.Errorf("binfmt: data symbols: %w", err)
			}
			b.DataSyms = make([]DataSym, 0, n)
			for i := uint32(0); i < n; i++ {
				var d DataSym
				if d.Name, err = s.str(); err != nil {
					return nil, fmt.Errorf("binfmt: data symbol %d: %w", i, err)
				}
				if d.Addr, err = s.u32(); err != nil {
					return nil, fmt.Errorf("binfmt: data symbol %d: %w", i, err)
				}
				if d.Size, err = s.u32(); err != nil {
					return nil, fmt.Errorf("binfmt: data symbol %d: %w", i, err)
				}
				k, err := s.byte()
				if err != nil {
					return nil, fmt.Errorf("binfmt: data symbol %d: %w", i, err)
				}
				d.Kind = DataKind(k)
				b.DataSyms = append(b.DataSyms, d)
			}
		case sectVars:
			n, err := s.u32()
			if err != nil {
				return nil, fmt.Errorf("binfmt: vars: %w", err)
			}
			if err := checkCount(n, len(body)); err != nil {
				return nil, fmt.Errorf("binfmt: vars: %w", err)
			}
			b.Vars = make([]LocalVar, 0, n)
			for i := uint32(0); i < n; i++ {
				var v LocalVar
				if v.FuncAddr, err = s.u32(); err != nil {
					return nil, fmt.Errorf("binfmt: var %d: %w", i, err)
				}
				reg, err := s.byte()
				if err != nil {
					return nil, fmt.Errorf("binfmt: var %d: %w", i, err)
				}
				v.Reg = isa.Reg(reg)
				k, err := s.byte()
				if err != nil {
					return nil, fmt.Errorf("binfmt: var %d: %w", i, err)
				}
				v.Kind = VarKind(k)
				if v.Name, err = s.str(); err != nil {
					return nil, fmt.Errorf("binfmt: var %d: %w", i, err)
				}
				b.Vars = append(b.Vars, v)
			}
		default:
			// Unknown sections are skipped for forward compatibility.
		}
	}
	// Reject ambiguous symbol tables instead of letting FuncAt pick an
	// arbitrary winner among overlapping ranges.
	if err := CheckFuncOverlap(b.Funcs); err != nil {
		return nil, fmt.Errorf("binfmt: funcs: %w", err)
	}
	b.buildIndex()
	return b, nil
}

// checkCount rejects element counts that could not possibly fit in the
// remaining section body, guarding allocations against corrupt headers.
func checkCount(n uint32, bodyLen int) error {
	if int64(n) > int64(bodyLen) {
		return fmt.Errorf("count %d exceeds section size %d", n, bodyLen)
	}
	return nil
}

func writeU32(w *bytes.Buffer, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(b[:])
}

func writeStr(w *bytes.Buffer, s string) {
	writeU32(w, uint32(len(s)))
	w.WriteString(s)
}

func writeBool(w *bytes.Buffer, v bool) {
	if v {
		w.WriteByte(1)
	} else {
		w.WriteByte(0)
	}
}

func writeSection(w *bytes.Buffer, id byte, body func(*bytes.Buffer)) {
	var tmp bytes.Buffer
	body(&tmp)
	w.WriteByte(id)
	writeU32(w, uint32(tmp.Len()))
	w.Write(tmp.Bytes())
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) done() bool { return r.off >= len(r.buf) }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.off+n > len(r.buf) {
		return nil, fmt.Errorf("truncated: need %d bytes at offset %d of %d", n, r.off, len(r.buf))
	}
	b := r.buf[r.off : r.off+n]
	r.off += n
	return b, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) boolean() (bool, error) {
	b, err := r.byte()
	return b != 0, err
}

func (r *reader) u32() (uint32, error) {
	b, err := r.bytes(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b), nil
}

func (r *reader) str() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) section() (byte, []byte, error) {
	id, err := r.byte()
	if err != nil {
		return 0, nil, err
	}
	n, err := r.u32()
	if err != nil {
		return 0, nil, err
	}
	body, err := r.bytes(int(n))
	if err != nil {
		return 0, nil, err
	}
	return id, body, nil
}
