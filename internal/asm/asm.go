// Package asm provides a programmatic assembler for the synthetic ISA.
//
// The firmware corpus generator (internal/corpus) uses this builder API the
// way a C compiler uses its code generator: it defines functions, interns
// string constants in the data segment, references imports by name, and
// links everything into a binfmt.Binary with resolved branch and call
// targets.
package asm

import (
	"fmt"

	"firmres/internal/binfmt"
	"firmres/internal/externs"
	"firmres/internal/isa"
)

// Assembler accumulates functions and data and links them into a Binary.
type Assembler struct {
	name      string
	textBase  uint32
	dataBase  uint32
	data      []byte
	dataSyms  []binfmt.DataSym
	strIntern map[string]uint32
	imports   []binfmt.Import
	importIdx map[string]int
	funcs     []*FuncBuilder
	vars      []pendingVar
	err       error // first recording error, reported at Link
}

type pendingVar struct {
	fn   *FuncBuilder
	reg  isa.Reg
	kind binfmt.VarKind
	name string
}

// New returns an assembler for a program with the given name, using the
// default segment bases.
func New(name string) *Assembler {
	return &Assembler{
		name:      name,
		textBase:  binfmt.DefaultTextBase,
		dataBase:  binfmt.DefaultDataBase,
		strIntern: make(map[string]uint32),
		importIdx: make(map[string]int),
	}
}

// setErr records the first error encountered while building; Link reports it.
func (a *Assembler) setErr(err error) {
	if a.err == nil {
		a.err = err
	}
}

// InternString places a NUL-terminated string constant in the data segment
// (deduplicated) and returns its absolute address.
func (a *Assembler) InternString(s string) uint32 {
	if addr, ok := a.strIntern[s]; ok {
		return addr
	}
	addr := a.dataBase + uint32(len(a.data))
	a.data = append(a.data, s...)
	a.data = append(a.data, 0)
	a.strIntern[s] = addr
	a.dataSyms = append(a.dataSyms, binfmt.DataSym{
		Addr: addr,
		Size: uint32(len(s) + 1),
		Kind: binfmt.DataString,
	})
	return addr
}

// Bytes places a named raw data object in the data segment and returns its
// absolute address.
func (a *Assembler) Bytes(name string, b []byte) uint32 {
	addr := a.dataBase + uint32(len(a.data))
	a.data = append(a.data, b...)
	a.dataSyms = append(a.dataSyms, binfmt.DataSym{
		Name: name,
		Addr: addr,
		Size: uint32(len(b)),
		Kind: binfmt.DataBytes,
	})
	return addr
}

// Import ensures the named external function is in the import table and
// returns its index. The signature comes from the externs database.
func (a *Assembler) Import(name string) int {
	if idx, ok := a.importIdx[name]; ok {
		return idx
	}
	sig, ok := externs.Lookup(name)
	if !ok {
		a.setErr(fmt.Errorf("asm: unknown external function %q", name))
		sig = &externs.Sig{Name: name}
	}
	idx := len(a.imports)
	a.imports = append(a.imports, binfmt.Import{
		Name:      sig.Name,
		NumParams: sig.NumParams,
		HasResult: sig.HasResult,
	})
	a.importIdx[name] = idx
	return idx
}

// Func starts a new function definition.
func (a *Assembler) Func(name string, numParams int, hasResult bool) *FuncBuilder {
	if numParams < 0 || numParams > isa.NumArgRegs {
		a.setErr(fmt.Errorf("asm: function %q arity %d exceeds calling convention", name, numParams))
	}
	f := &FuncBuilder{
		a:         a,
		name:      name,
		numParams: numParams,
		hasResult: hasResult,
	}
	a.funcs = append(a.funcs, f)
	return f
}

// Label marks a branch target within one function.
type Label int

type fixupKind uint8

const (
	fixLabel fixupKind = iota + 1
	fixFunc
)

type fixup struct {
	instr  int // index into the function's instruction list
	kind   fixupKind
	label  Label
	target string // for fixFunc
}

// FuncBuilder emits instructions for a single function.
type FuncBuilder struct {
	a         *Assembler
	name      string
	numParams int
	hasResult bool
	instrs    []isa.Instruction
	labels    []int // label -> instruction index, -1 while unbound
	fixups    []fixup
	addr      uint32 // assigned at link time
}

// Name returns the function's symbol name.
func (f *FuncBuilder) Name() string { return f.name }

func (f *FuncBuilder) emit(in isa.Instruction) *FuncBuilder {
	f.instrs = append(f.instrs, in)
	return f
}

// NewLabel allocates an unbound label.
func (f *FuncBuilder) NewLabel() Label {
	f.labels = append(f.labels, -1)
	return Label(len(f.labels) - 1)
}

// Bind attaches a label to the next emitted instruction.
func (f *FuncBuilder) Bind(l Label) {
	if int(l) >= len(f.labels) {
		f.a.setErr(fmt.Errorf("asm: %s: bind of unknown label %d", f.name, l))
		return
	}
	f.labels[l] = len(f.instrs)
}

// NameVar records a debug name for the variable held in reg.
func (f *FuncBuilder) NameVar(reg isa.Reg, name string) *FuncBuilder {
	f.a.vars = append(f.a.vars, pendingVar{fn: f, reg: reg, kind: binfmt.VarLocal, name: name})
	return f
}

// NameParam records a debug name for the parameter held in reg.
func (f *FuncBuilder) NameParam(reg isa.Reg, name string) *FuncBuilder {
	f.a.vars = append(f.a.vars, pendingVar{fn: f, reg: reg, kind: binfmt.VarParam, name: name})
	return f
}

// Nop emits a no-op.
func (f *FuncBuilder) Nop() *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpNop})
}

// LI loads an immediate constant into rd.
func (f *FuncBuilder) LI(rd isa.Reg, imm int32) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpLI, Rd: rd, Imm: imm})
}

// LA loads an absolute data-segment address into rd.
func (f *FuncBuilder) LA(rd isa.Reg, addr uint32) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpLA, Rd: rd, Imm: int32(addr)})
}

// LAStr interns s and loads its address into rd.
func (f *FuncBuilder) LAStr(rd isa.Reg, s string) *FuncBuilder {
	return f.LA(rd, f.a.InternString(s))
}

// Mov copies rs into rd.
func (f *FuncBuilder) Mov(rd, rs isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpMov, Rd: rd, Rs1: rs})
}

// ALU three-register forms.

// Add emits rd = rs1 + rs2.
func (f *FuncBuilder) Add(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpAdd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Sub emits rd = rs1 - rs2.
func (f *FuncBuilder) Sub(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpSub, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Mul emits rd = rs1 * rs2.
func (f *FuncBuilder) Mul(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpMul, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Div emits rd = rs1 / rs2.
func (f *FuncBuilder) Div(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpDiv, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// And emits rd = rs1 & rs2.
func (f *FuncBuilder) And(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpAnd, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Or emits rd = rs1 | rs2.
func (f *FuncBuilder) Or(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpOr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Xor emits rd = rs1 ^ rs2.
func (f *FuncBuilder) Xor(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpXor, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shl emits rd = rs1 << rs2.
func (f *FuncBuilder) Shl(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpShl, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// Shr emits rd = rs1 >> rs2.
func (f *FuncBuilder) Shr(rd, rs1, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpShr, Rd: rd, Rs1: rs1, Rs2: rs2})
}

// AddI emits rd = rs1 + imm.
func (f *FuncBuilder) AddI(rd, rs1 isa.Reg, imm int32) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpAddI, Rd: rd, Rs1: rs1, Imm: imm})
}

// LW loads a 32-bit word: rd = mem32[rs1+off].
func (f *FuncBuilder) LW(rd, rs1 isa.Reg, off int32) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpLW, Rd: rd, Rs1: rs1, Imm: off})
}

// SW stores a 32-bit word: mem32[rs1+off] = rs2.
func (f *FuncBuilder) SW(rs1 isa.Reg, off int32, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpSW, Rs1: rs1, Rs2: rs2, Imm: off})
}

// LB loads a byte: rd = mem8[rs1+off].
func (f *FuncBuilder) LB(rd, rs1 isa.Reg, off int32) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpLB, Rd: rd, Rs1: rs1, Imm: off})
}

// SB stores a byte: mem8[rs1+off] = rs2.
func (f *FuncBuilder) SB(rs1 isa.Reg, off int32, rs2 isa.Reg) *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpSB, Rs1: rs1, Rs2: rs2, Imm: off})
}

func (f *FuncBuilder) branch(op isa.Opcode, rs1, rs2 isa.Reg, l Label) *FuncBuilder {
	f.fixups = append(f.fixups, fixup{instr: len(f.instrs), kind: fixLabel, label: l})
	return f.emit(isa.Instruction{Op: op, Rs1: rs1, Rs2: rs2})
}

// Beq branches to l when rs1 == rs2.
func (f *FuncBuilder) Beq(rs1, rs2 isa.Reg, l Label) *FuncBuilder {
	return f.branch(isa.OpBeq, rs1, rs2, l)
}

// Bne branches to l when rs1 != rs2.
func (f *FuncBuilder) Bne(rs1, rs2 isa.Reg, l Label) *FuncBuilder {
	return f.branch(isa.OpBne, rs1, rs2, l)
}

// Blt branches to l when rs1 < rs2 (signed).
func (f *FuncBuilder) Blt(rs1, rs2 isa.Reg, l Label) *FuncBuilder {
	return f.branch(isa.OpBlt, rs1, rs2, l)
}

// Bge branches to l when rs1 >= rs2 (signed).
func (f *FuncBuilder) Bge(rs1, rs2 isa.Reg, l Label) *FuncBuilder {
	return f.branch(isa.OpBge, rs1, rs2, l)
}

// Jmp jumps unconditionally to l.
func (f *FuncBuilder) Jmp(l Label) *FuncBuilder {
	f.fixups = append(f.fixups, fixup{instr: len(f.instrs), kind: fixLabel, label: l})
	return f.emit(isa.Instruction{Op: isa.OpJmp})
}

// Call emits a direct call to the named local function. Arguments must
// already be in R1..R6.
func (f *FuncBuilder) Call(fn string) *FuncBuilder {
	f.fixups = append(f.fixups, fixup{instr: len(f.instrs), kind: fixFunc, target: fn})
	return f.emit(isa.Instruction{Op: isa.OpCall})
}

// CallImport emits a call to the named external function with the given
// callsite arity (arguments already in R1..R6). For fixed-arity externs the
// arity must match the signature.
func (f *FuncBuilder) CallImport(fn string, arity int) *FuncBuilder {
	idx := f.a.Import(fn)
	sig := f.a.imports[idx]
	if arity < 0 || arity > isa.NumArgRegs {
		f.a.setErr(fmt.Errorf("asm: %s: call %s with arity %d outside convention", f.name, fn, arity))
	}
	if sig.NumParams != externs.Variadic && arity != sig.NumParams {
		f.a.setErr(fmt.Errorf("asm: %s: call %s with arity %d, signature wants %d", f.name, fn, arity, sig.NumParams))
	}
	return f.emit(isa.Instruction{Op: isa.OpCallI, Rs1: isa.Reg(arity), Imm: int32(idx)})
}

// CallReg emits an indirect call through rs with the given callsite arity
// (stored in the Rd field by convention).
func (f *FuncBuilder) CallReg(rs isa.Reg, arity int) *FuncBuilder {
	if arity < 0 || arity > isa.NumArgRegs {
		f.a.setErr(fmt.Errorf("asm: %s: indirect call with arity %d outside convention", f.name, arity))
	}
	return f.emit(isa.Instruction{Op: isa.OpCallR, Rs1: rs, Rd: isa.Reg(arity)})
}

// LAFunc loads the address of the named local function into rd (for event
// callback registration). Resolved at link time.
func (f *FuncBuilder) LAFunc(rd isa.Reg, fn string) *FuncBuilder {
	f.fixups = append(f.fixups, fixup{instr: len(f.instrs), kind: fixFunc, target: fn})
	return f.emit(isa.Instruction{Op: isa.OpLI, Rd: rd})
}

// Ret emits a return.
func (f *FuncBuilder) Ret() *FuncBuilder {
	return f.emit(isa.Instruction{Op: isa.OpRet})
}

// Link assigns addresses, resolves fixups, and produces the final binary.
func (a *Assembler) Link() (*binfmt.Binary, error) {
	if a.err != nil {
		return nil, a.err
	}
	// Pass 1: assign function addresses.
	funcAddr := make(map[string]uint32, len(a.funcs))
	addr := a.textBase
	for _, f := range a.funcs {
		if len(f.instrs) == 0 {
			return nil, fmt.Errorf("asm: function %q has no instructions", f.name)
		}
		if _, dup := funcAddr[f.name]; dup {
			return nil, fmt.Errorf("asm: duplicate function %q", f.name)
		}
		f.addr = addr
		funcAddr[f.name] = addr
		addr += uint32(len(f.instrs) * isa.InstrSize)
	}
	// Pass 2: resolve fixups and emit text.
	var text []byte
	bin := &binfmt.Binary{
		Name:     a.name,
		TextBase: a.textBase,
		DataBase: a.dataBase,
		Data:     append([]byte(nil), a.data...),
		Imports:  append([]binfmt.Import(nil), a.imports...),
	}
	for _, f := range a.funcs {
		for _, fx := range f.fixups {
			switch fx.kind {
			case fixLabel:
				if int(fx.label) >= len(f.labels) || f.labels[fx.label] < 0 {
					return nil, fmt.Errorf("asm: %s: unbound label %d", f.name, fx.label)
				}
				target := f.addr + uint32(f.labels[fx.label]*isa.InstrSize)
				f.instrs[fx.instr].Imm = int32(target)
			case fixFunc:
				target, ok := funcAddr[fx.target]
				if !ok {
					return nil, fmt.Errorf("asm: %s: call to undefined function %q", f.name, fx.target)
				}
				f.instrs[fx.instr].Imm = int32(target)
			}
		}
		for _, in := range f.instrs {
			text = in.Encode(text)
		}
		bin.Funcs = append(bin.Funcs, binfmt.FuncSym{
			Name:      f.name,
			Addr:      f.addr,
			Size:      uint32(len(f.instrs) * isa.InstrSize),
			NumParams: f.numParams,
			HasResult: f.hasResult,
		})
	}
	bin.Text = text
	for _, pv := range a.vars {
		bin.Vars = append(bin.Vars, binfmt.LocalVar{
			FuncAddr: pv.fn.addr,
			Reg:      pv.reg,
			Kind:     pv.kind,
			Name:     pv.name,
		})
	}
	bin.DataSyms = append(bin.DataSyms, a.dataSyms...)
	bin.SortSymbols()
	if err := bin.Validate(); err != nil {
		return nil, fmt.Errorf("asm: linked binary invalid: %w", err)
	}
	return bin, nil
}
