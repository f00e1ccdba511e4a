package pcode

import (
	"fmt"

	"firmres/internal/binfmt"
	"firmres/internal/externs"
	"firmres/internal/isa"
)

// Function is the lifted P-Code listing of one machine function.
//
// Memory discipline: a function owns no arrays of its own. Its ops, their
// inputs and call targets, and its op-index and slot tables are carved out
// of its program's slabs, sized exactly from the function's decoded code
// before it is lifted; so a whole program costs a handful of allocations,
// and none when Program.Lift recycles one that served as large a program.
// The interning tables (locIdx/locs/ramIDs, see intern.go) belong to the
// function and are kept across reuse. Everything is written only during
// lifting; afterwards the struct is immutable, so analysis workers may
// read it concurrently without locks.
type Function struct {
	Sym   binfmt.FuncSym
	Ops   []Op
	opAt  []int32 // instruction slot -> index of the first op at that address
	index int     // position in the program's address-ordered Funcs

	locIdx  map[uint64]LocID // packed location (locKey) -> dense ID (defined locations + slots)
	locs    []Loc            // dense ID -> location
	ramIDs  []LocID          // interned RAM-space (stack slot) locations
	slotLoc []LocID          // per-op resolved stack slot, NoLoc if none
}

// Name returns the function's symbol name.
func (f *Function) Name() string { return f.Sym.Name }

// Addr returns the function's entry address.
func (f *Function) Addr() uint32 { return f.Sym.Addr }

// Index returns the function's position in its program's Funcs, a dense
// index per-function tables are kept by. A function lifted alone has
// index 0.
func (f *Function) Index() int { return f.index }

// OpIndexAt returns the index of the first op at a machine address. A NOP
// lifts to no op, so its address maps to the next op's index (len(Ops)
// after a trailing NOP). Addresses before the entry, past the end or
// between instruction boundaries have no index.
func (f *Function) OpIndexAt(addr uint32) (int, bool) {
	off := addr - f.Sym.Addr
	if addr < f.Sym.Addr || off%isa.InstrSize != 0 || off/isa.InstrSize >= uint32(len(f.opAt)) {
		return 0, false
	}
	return int(f.opAt[off/isa.InstrSize]), true
}

// Params returns the varnodes holding the function's incoming parameters
// (registers R1..R<arity> by convention).
func (f *Function) Params() []Varnode {
	out := make([]Varnode, 0, f.Sym.NumParams)
	for i := 0; i < f.Sym.NumParams; i++ {
		out = append(out, Register(isa.ArgReg(i)))
	}
	return out
}

// LoadBase recovers the base operand of the LOAD at loadIdx: the first
// input of the INT_ADD(base, const) the lifter emitted just before it for
// the same instruction. The second result is false when the op before is
// not that address computation.
func (f *Function) LoadBase(loadIdx int) (Varnode, bool) {
	if loadIdx <= 0 || loadIdx >= len(f.Ops) {
		return Varnode{}, false
	}
	ea, load := &f.Ops[loadIdx-1], &f.Ops[loadIdx]
	if !ea.HasOut || len(load.Inputs) == 0 || ea.Output != load.Inputs[0] || ea.Code != INT_ADD {
		return Varnode{}, false
	}
	return ea.Inputs[0], true
}

// size counts the P-Code expansion of a stretch of decoded code: ops, op
// inputs and call targets.
type size struct{ ops, ins, calls int }

// sizeOf returns the ops, inputs and call targets of one instruction's
// P-Code expansion, letting lifting carve exact slab shares instead of
// growing slices. A call's inputs are its argument registers, so its size
// reads the callee's arity as the lifter does.
func sizeOf(bin *binfmt.Binary, in isa.Instruction) size {
	switch in.Op {
	case isa.OpNop:
		return size{}
	case isa.OpLI, isa.OpLA, isa.OpMov, isa.OpJmp:
		return size{ops: 1, ins: 1}
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpAddI:
		return size{ops: 1, ins: 2}
	case isa.OpLW, isa.OpLB:
		return size{ops: 2, ins: 3}
	case isa.OpSW, isa.OpSB:
		return size{ops: 2, ins: 4}
	case isa.OpBeq, isa.OpBne, isa.OpBlt:
		return size{ops: 2, ins: 4}
	case isa.OpBge:
		return size{ops: 3, ins: 5}
	case isa.OpCall:
		arity := 0
		if callee, ok := bin.FuncAt(uint32(in.Imm)); ok {
			arity = callee.NumParams
		}
		return size{ops: 1, ins: argRegs(arity), calls: 1}
	case isa.OpCallI:
		arity := 0
		if idx := int(in.Imm); idx >= 0 && idx < len(bin.Imports) {
			arity = importArity(bin.Imports[idx], in)
		}
		return size{ops: 1, ins: argRegs(arity), calls: 1}
	case isa.OpCallR:
		return size{ops: 1, ins: 1 + int(in.Rd), calls: 1}
	case isa.OpRet:
		return size{ops: 1, ins: 1}
	}
	return size{ops: 1, ins: 2} // unsupported opcodes fail during lifting anyway
}

// importArity returns the argument count of a call to imp: its declared
// arity, or the count the call instruction carries for a variadic import.
func importArity(imp binfmt.Import, in isa.Instruction) int {
	if imp.NumParams != externs.Variadic {
		return imp.NumParams
	}
	return int(in.Rs1)
}

// argRegs returns the argument registers a call of the given arity reads.
func argRegs(arity int) int { return max(0, min(arity, isa.NumArgRegs)) }

// decode decodes the instructions of fn's body into p's decode buffer,
// replacing what it held: a function's instructions are consumed while
// emitting its ops and nothing retains them, so one buffer, grown to the
// largest function, serves every function and travels with a recycled
// program to its next lift.
func (p *Program) decode(bin *binfmt.Binary, fn binfmt.FuncSym) ([]isa.Instruction, error) {
	if fn.Size == 0 || fn.End() > bin.TextBase+uint32(len(bin.Text)) {
		return nil, fmt.Errorf("pcode: function %q out of range", fn.Name)
	}
	instrs, err := isa.DecodeAppend(p.instrs[:0], bin.Text[fn.Addr-bin.TextBase:fn.End()-bin.TextBase])
	p.instrs = instrs[:0] // keep the grown buffer either way
	if err != nil {
		return nil, fmt.Errorf("pcode: lifting %q: %w", fn.Name, err)
	}
	return instrs, nil
}

// sizeOfCode returns the size of the P-Code expansion of a function's
// decoded instructions.
func sizeOfCode(bin *binfmt.Binary, instrs []isa.Instruction) (n size) {
	for _, in := range instrs {
		s := sizeOf(bin, in)
		n.ops, n.ins, n.calls = n.ops+s.ops, n.ins+s.ins, n.calls+s.calls
	}
	return n
}

// Lift translates the machine code of fn into P-Code, in storage of its
// own.
func Lift(bin *binfmt.Binary, fn binfmt.FuncSym) (*Function, error) {
	p := new(Program)
	instrs, err := p.decode(bin, fn)
	if err != nil {
		return nil, err
	}
	f := new(Function)
	if err := f.lift(bin, fn, instrs, p); err != nil {
		return nil, err
	}
	return f, nil
}

// lift fills f with the P-Code of fn, whose decoded instructions are
// given, carving its arrays, sized from them, off p's slabs. A recycled f
// keeps its interning tables' storage.
func (f *Function) lift(bin *binfmt.Binary, fn binfmt.FuncSym, instrs []isa.Instruction, p *Program) error {
	n := sizeOfCode(bin, instrs)
	f.Sym = fn
	f.Ops = p.ops.Take(n.ops)[:0]
	f.opAt = p.opAt.Take(len(instrs))
	f.slotLoc = p.slots.Take(n.ops)
	f.locs, f.ramIDs = f.locs[:0], f.ramIDs[:0]
	if f.locIdx == nil {
		// A function interns about one location per four ops, plus the
		// registers it writes.
		f.locIdx = make(map[uint64]LocID, isa.NumRegs+n.ops/4)
	} else {
		clear(f.locIdx)
	}
	l := lifter{f: f, bin: bin, ins: p.ins.Take(n.ins)[:0], calls: p.calls.Take(n.calls)[:0]}
	for i, in := range instrs {
		addr := fn.Addr + uint32(i*isa.InstrSize)
		f.opAt[i] = int32(len(f.Ops))
		if err := l.liftInstr(addr, in); err != nil {
			return fmt.Errorf("pcode: lifting %q at %#x: %w", fn.Name, addr, err)
		}
	}
	f.resolveSlots()
	return nil
}

// lifter is the lift-time state of one function: cursors into its shares
// of the input and call-target slabs, and the unique-space allocator.
type lifter struct {
	f      *Function
	bin    *binfmt.Binary
	ins    []Varnode
	calls  []CallTarget
	nextID uint64
}

func (l *lifter) unique() Varnode {
	l.nextID++
	return Varnode{Space: SpaceUnique, Offset: l.nextID, Size: 4}
}

// in1/in2 carve an op's input slice off the function's input share,
// capacity-clamped so nothing can append through into a neighbour.
func (l *lifter) in1(a Varnode) []Varnode {
	n := len(l.ins)
	l.ins = append(l.ins, a)
	return l.ins[n : n+1 : n+1]
}

func (l *lifter) in2(a, b Varnode) []Varnode {
	n := len(l.ins)
	l.ins = append(l.ins, a, b)
	return l.ins[n : n+2 : n+2]
}

// call stores a call target in the function's call-target share.
func (l *lifter) call(ct CallTarget) *CallTarget {
	l.calls = append(l.calls, ct)
	return &l.calls[len(l.calls)-1]
}

// emit appends an op, stamping address and sequence number and interning
// the defined location.
func (l *lifter) emit(addr uint32, op Op) {
	f := l.f
	op.Addr = addr
	// Sequence number within the instruction expansion.
	if n := len(f.Ops); n > 0 && f.Ops[n-1].Addr == addr {
		op.Seq = f.Ops[n-1].Seq + 1
	}
	if op.HasOut {
		f.internLoc(locOf(op.Output))
	}
	f.Ops = append(f.Ops, op)
}

func (l *lifter) liftInstr(addr uint32, in isa.Instruction) error {
	rd := Register(in.Rd)
	rs1 := Register(in.Rs1)
	rs2 := Register(in.Rs2)

	binop := func(code OpCode) {
		l.emit(addr, Op{Code: code, Output: rd, HasOut: true, Inputs: l.in2(rs1, rs2)})
	}

	switch in.Op {
	case isa.OpNop:
		// No P-Code emitted; keep an index entry via a COPY of R0 to itself?
		// Ghidra emits nothing for NOPs; the CFG layer handles empty slots.
		return nil

	case isa.OpLI, isa.OpLA:
		l.emit(addr, Op{Code: COPY, Output: rd, HasOut: true,
			Inputs: l.in1(Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpMov:
		l.emit(addr, Op{Code: COPY, Output: rd, HasOut: true, Inputs: l.in1(rs1)})

	case isa.OpAdd:
		binop(INT_ADD)
	case isa.OpSub:
		binop(INT_SUB)
	case isa.OpMul:
		binop(INT_MULT)
	case isa.OpDiv:
		binop(INT_DIV)
	case isa.OpAnd:
		binop(INT_AND)
	case isa.OpOr:
		binop(INT_OR)
	case isa.OpXor:
		binop(INT_XOR)
	case isa.OpShl:
		binop(INT_LEFT)
	case isa.OpShr:
		binop(INT_RIGHT)

	case isa.OpAddI:
		l.emit(addr, Op{Code: INT_ADD, Output: rd, HasOut: true,
			Inputs: l.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpLW, isa.OpLB:
		size := uint8(4)
		if in.Op == isa.OpLB {
			size = 1
		}
		ea := l.unique()
		l.emit(addr, Op{Code: INT_ADD, Output: ea, HasOut: true,
			Inputs: l.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})
		dst := rd
		dst.Size = size
		l.emit(addr, Op{Code: LOAD, Output: dst, HasOut: true, Inputs: l.in1(ea)})

	case isa.OpSW, isa.OpSB:
		size := uint8(4)
		if in.Op == isa.OpSB {
			size = 1
		}
		ea := l.unique()
		l.emit(addr, Op{Code: INT_ADD, Output: ea, HasOut: true,
			Inputs: l.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})
		src := rs2
		src.Size = size
		l.emit(addr, Op{Code: STORE, Inputs: l.in2(ea, src)})

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		target := Constant(uint64(uint32(in.Imm)), 4)
		pred := l.unique()
		pred.Size = 1
		switch in.Op {
		case isa.OpBeq:
			l.emit(addr, Op{Code: INT_EQUAL, Output: pred, HasOut: true, Inputs: l.in2(rs1, rs2)})
		case isa.OpBne:
			l.emit(addr, Op{Code: INT_NOTEQUAL, Output: pred, HasOut: true, Inputs: l.in2(rs1, rs2)})
		case isa.OpBlt:
			l.emit(addr, Op{Code: INT_SLESS, Output: pred, HasOut: true, Inputs: l.in2(rs1, rs2)})
		case isa.OpBge:
			lt := l.unique()
			lt.Size = 1
			l.emit(addr, Op{Code: INT_SLESS, Output: lt, HasOut: true, Inputs: l.in2(rs1, rs2)})
			l.emit(addr, Op{Code: BOOL_NEGATE, Output: pred, HasOut: true, Inputs: l.in1(lt)})
		}
		l.emit(addr, Op{Code: CBRANCH, Inputs: l.in2(target, pred)})

	case isa.OpJmp:
		l.emit(addr, Op{Code: BRANCH,
			Inputs: l.in1(Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpCall:
		callee, ok := l.bin.FuncAt(uint32(in.Imm))
		if !ok {
			return fmt.Errorf("call to unmapped address %#x", uint32(in.Imm))
		}
		l.emitCall(addr, l.call(CallTarget{
			Kind: CallLocal, Addr: callee.Addr, Name: callee.Name,
			Arity: callee.NumParams, HasResult: callee.HasResult,
		}))

	case isa.OpCallI:
		idx := int(in.Imm)
		if idx < 0 || idx >= len(l.bin.Imports) {
			return fmt.Errorf("import index %d out of range", idx)
		}
		imp := l.bin.Imports[idx]
		sig, _ := externs.Lookup(imp.Name)
		l.emitCall(addr, l.call(CallTarget{
			Kind: CallImported, Import: idx, Name: imp.Name, Sig: sig,
			Arity: importArity(imp, in), HasResult: imp.HasResult,
		}))

	case isa.OpCallR:
		arity := int(in.Rd)
		start := len(l.ins)
		l.ins = append(l.ins, rs1)
		for i := 0; i < arity; i++ {
			l.ins = append(l.ins, Register(isa.ArgReg(i)))
		}
		l.emit(addr, Op{Code: CALLIND, Output: Register(isa.R1), HasOut: true,
			Inputs: l.ins[start:len(l.ins):len(l.ins)],
			Call:   l.call(CallTarget{Kind: CallIndirect, Arity: arity, HasResult: true})})

	case isa.OpRet:
		var inputs []Varnode
		if l.f.Sym.HasResult {
			inputs = l.in1(Register(isa.R1))
		}
		l.emit(addr, Op{Code: RETURN, Inputs: inputs})

	default:
		return fmt.Errorf("unsupported opcode %s", in.Op)
	}
	return nil
}

// emitCall materializes a CALL op with argument registers as inputs and R1
// as output when the callee produces a result.
func (l *lifter) emitCall(addr uint32, ct *CallTarget) {
	start := len(l.ins)
	for i := 0; i < ct.Arity && i < isa.NumArgRegs; i++ {
		l.ins = append(l.ins, Register(isa.ArgReg(i)))
	}
	op := Op{Code: CALL, Inputs: l.ins[start:len(l.ins):len(l.ins)], Call: ct}
	if ct.HasResult {
		op.Output = Register(isa.R1)
		op.HasOut = true
	}
	l.emit(addr, op)
}
