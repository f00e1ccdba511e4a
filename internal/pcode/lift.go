package pcode

import (
	"fmt"
	"sync"

	"firmres/internal/binfmt"
	"firmres/internal/externs"
	"firmres/internal/isa"
)

// Function is the lifted P-Code listing of one machine function.
//
// Memory discipline: Lift sizes Ops exactly and carves every op's Inputs
// out of one shared per-function slab (inSlab), so a function costs a
// fixed handful of allocations instead of one per op. The slab and the
// interning tables (locIdx/locs/ramIDs/slotLoc, see intern.go) are
// written only during Lift; afterwards the whole struct is immutable, so
// analysis workers may read it concurrently without locks.
type Function struct {
	Sym    binfmt.FuncSym
	Ops    []Op
	opAt   []int32 // instruction slot -> index of the first op at that address
	nextID uint64  // unique-space allocator state

	inSlab []Varnode // backing storage every op's Inputs slice is carved from

	locIdx  map[uint64]LocID // packed location (locKey) -> dense ID (defined locations + slots)
	locs    []Loc            // dense ID -> location
	ramIDs  []LocID          // interned RAM-space (stack slot) locations
	slotLoc []LocID          // per-op resolved stack slot, NoLoc if none
}

// Name returns the function's symbol name.
func (f *Function) Name() string { return f.Sym.Name }

// Addr returns the function's entry address.
func (f *Function) Addr() uint32 { return f.Sym.Addr }

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

func (f *Function) unique() Varnode {
	f.nextID++
	return Varnode{Space: SpaceUnique, Offset: f.nextID, Size: 4}
}

// in1/in2 carve an op's input slice off the per-function slab,
// capacity-clamped so nothing can append through into a neighbour. A slab
// regrowth leaves previously carved slices pointing at the old array,
// which stays valid — slices are never re-derived from the slab.
func (f *Function) in1(a Varnode) []Varnode {
	n := len(f.inSlab)
	f.inSlab = append(f.inSlab, a)
	return f.inSlab[n : n+1 : n+1]
}

func (f *Function) in2(a, b Varnode) []Varnode {
	n := len(f.inSlab)
	f.inSlab = append(f.inSlab, a, b)
	return f.inSlab[n : n+2 : n+2]
}

// liftScratch pools the per-Lift decode buffer: instructions are consumed
// while emitting ops and nothing retains them, so the buffer recycles
// across functions and batch images.
var liftScratch = sync.Pool{New: func() any { return new(scratch) }}

type scratch struct{ instrs []isa.Instruction }

// sizeOf returns the exact op count and an input-count upper bound for one
// instruction's P-Code expansion, letting Lift pre-size the op slice and
// input slab instead of growing them.
func sizeOf(in isa.Instruction) (ops, ins int) {
	switch in.Op {
	case isa.OpNop:
		return 0, 0
	case isa.OpLI, isa.OpLA, isa.OpMov, isa.OpJmp:
		return 1, 1
	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpAddI:
		return 1, 2
	case isa.OpLW, isa.OpLB:
		return 2, 3
	case isa.OpSW, isa.OpSB:
		return 2, 4
	case isa.OpBeq, isa.OpBne, isa.OpBlt:
		return 2, 4
	case isa.OpBge:
		return 3, 5
	case isa.OpCall, isa.OpCallI:
		return 1, isa.NumArgRegs
	case isa.OpCallR:
		return 1, 1 + int(in.Rd)
	case isa.OpRet:
		return 1, 1
	}
	return 1, 2 // unsupported opcodes fail during lifting anyway
}

// Lift translates the machine code of fn into P-Code.
func Lift(bin *binfmt.Binary, fn binfmt.FuncSym) (*Function, error) {
	if fn.Size == 0 || fn.End() > bin.TextBase+uint32(len(bin.Text)) {
		return nil, fmt.Errorf("pcode: function %q out of range", fn.Name)
	}
	body := bin.Text[fn.Addr-bin.TextBase : fn.End()-bin.TextBase]
	sc := liftScratch.Get().(*scratch)
	defer liftScratch.Put(sc)
	instrs, err := isa.DecodeAppend(sc.instrs[:0], body)
	sc.instrs = instrs // keep the grown buffer pooled either way
	if err != nil {
		return nil, fmt.Errorf("pcode: lifting %q: %w", fn.Name, err)
	}
	nops, nins := 0, 0
	for _, in := range instrs {
		o, i := sizeOf(in)
		nops += o
		nins += i
	}
	f := &Function{
		Sym:    fn,
		Ops:    make([]Op, 0, nops),
		opAt:   make([]int32, len(instrs)),
		inSlab: make([]Varnode, 0, nins),
		locIdx: make(map[uint64]LocID, nops),
	}
	for i, in := range instrs {
		addr := fn.Addr + uint32(i*isa.InstrSize)
		f.opAt[i] = int32(len(f.Ops))
		if err := f.liftInstr(bin, addr, in); err != nil {
			return nil, fmt.Errorf("pcode: lifting %q at %#x: %w", fn.Name, addr, err)
		}
	}
	f.resolveSlots()
	return f, nil
}

// emit appends an op, stamping address and sequence number and interning
// the defined location.
func (f *Function) emit(addr uint32, op Op) {
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

func (f *Function) liftInstr(bin *binfmt.Binary, addr uint32, in isa.Instruction) error {
	rd := Register(in.Rd)
	rs1 := Register(in.Rs1)
	rs2 := Register(in.Rs2)

	binop := func(code OpCode) {
		f.emit(addr, Op{Code: code, Output: rd, HasOut: true, Inputs: f.in2(rs1, rs2)})
	}

	switch in.Op {
	case isa.OpNop:
		// No P-Code emitted; keep an index entry via a COPY of R0 to itself?
		// Ghidra emits nothing for NOPs; the CFG layer handles empty slots.
		return nil

	case isa.OpLI, isa.OpLA:
		f.emit(addr, Op{Code: COPY, Output: rd, HasOut: true,
			Inputs: f.in1(Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpMov:
		f.emit(addr, Op{Code: COPY, Output: rd, HasOut: true, Inputs: f.in1(rs1)})

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
		f.emit(addr, Op{Code: INT_ADD, Output: rd, HasOut: true,
			Inputs: f.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpLW, isa.OpLB:
		size := uint8(4)
		if in.Op == isa.OpLB {
			size = 1
		}
		ea := f.unique()
		f.emit(addr, Op{Code: INT_ADD, Output: ea, HasOut: true,
			Inputs: f.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})
		dst := rd
		dst.Size = size
		f.emit(addr, Op{Code: LOAD, Output: dst, HasOut: true, Inputs: f.in1(ea)})

	case isa.OpSW, isa.OpSB:
		size := uint8(4)
		if in.Op == isa.OpSB {
			size = 1
		}
		ea := f.unique()
		f.emit(addr, Op{Code: INT_ADD, Output: ea, HasOut: true,
			Inputs: f.in2(rs1, Constant(uint64(uint32(in.Imm)), 4))})
		src := rs2
		src.Size = size
		f.emit(addr, Op{Code: STORE, Inputs: f.in2(ea, src)})

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		target := Constant(uint64(uint32(in.Imm)), 4)
		pred := f.unique()
		pred.Size = 1
		switch in.Op {
		case isa.OpBeq:
			f.emit(addr, Op{Code: INT_EQUAL, Output: pred, HasOut: true, Inputs: f.in2(rs1, rs2)})
		case isa.OpBne:
			f.emit(addr, Op{Code: INT_NOTEQUAL, Output: pred, HasOut: true, Inputs: f.in2(rs1, rs2)})
		case isa.OpBlt:
			f.emit(addr, Op{Code: INT_SLESS, Output: pred, HasOut: true, Inputs: f.in2(rs1, rs2)})
		case isa.OpBge:
			lt := f.unique()
			lt.Size = 1
			f.emit(addr, Op{Code: INT_SLESS, Output: lt, HasOut: true, Inputs: f.in2(rs1, rs2)})
			f.emit(addr, Op{Code: BOOL_NEGATE, Output: pred, HasOut: true, Inputs: f.in1(lt)})
		}
		f.emit(addr, Op{Code: CBRANCH, Inputs: f.in2(target, pred)})

	case isa.OpJmp:
		f.emit(addr, Op{Code: BRANCH,
			Inputs: f.in1(Constant(uint64(uint32(in.Imm)), 4))})

	case isa.OpCall:
		callee, ok := bin.FuncAt(uint32(in.Imm))
		if !ok {
			return fmt.Errorf("call to unmapped address %#x", uint32(in.Imm))
		}
		f.emitCall(addr, &CallTarget{
			Kind: CallLocal, Addr: callee.Addr, Name: callee.Name,
			Arity: callee.NumParams, HasResult: callee.HasResult,
		})

	case isa.OpCallI:
		idx := int(in.Imm)
		if idx < 0 || idx >= len(bin.Imports) {
			return fmt.Errorf("import index %d out of range", idx)
		}
		imp := bin.Imports[idx]
		arity := int(in.Rs1)
		if imp.NumParams != externs.Variadic {
			arity = imp.NumParams
		}
		f.emitCall(addr, &CallTarget{
			Kind: CallImported, Import: idx, Name: imp.Name,
			Arity: arity, HasResult: imp.HasResult,
		})

	case isa.OpCallR:
		arity := int(in.Rd)
		ct := &CallTarget{Kind: CallIndirect, Arity: arity, HasResult: true}
		start := len(f.inSlab)
		f.inSlab = append(f.inSlab, rs1)
		for i := 0; i < arity; i++ {
			f.inSlab = append(f.inSlab, Register(isa.ArgReg(i)))
		}
		inputs := f.inSlab[start:len(f.inSlab):len(f.inSlab)]
		f.emit(addr, Op{Code: CALLIND, Output: Register(isa.R1), HasOut: true,
			Inputs: inputs, Call: ct})

	case isa.OpRet:
		var inputs []Varnode
		if f.Sym.HasResult {
			inputs = f.in1(Register(isa.R1))
		}
		f.emit(addr, Op{Code: RETURN, Inputs: inputs})

	default:
		return fmt.Errorf("unsupported opcode %s", in.Op)
	}
	return nil
}

// emitCall materializes a CALL op with argument registers as inputs and R1
// as output when the callee produces a result.
func (f *Function) emitCall(addr uint32, ct *CallTarget) {
	start := len(f.inSlab)
	for i := 0; i < ct.Arity && i < isa.NumArgRegs; i++ {
		f.inSlab = append(f.inSlab, Register(isa.ArgReg(i)))
	}
	op := Op{Code: CALL, Inputs: f.inSlab[start:len(f.inSlab):len(f.inSlab)], Call: ct}
	if ct.HasResult {
		op.Output = Register(isa.R1)
		op.HasOut = true
	}
	f.emit(addr, op)
}
