// Package isa defines the synthetic 32-bit RISC instruction set that the
// firmware corpus is compiled to and that the analysis pipeline lifts from.
//
// The ISA stands in for the MIPS/ARM instruction sets of real IoT firmware:
// it is deliberately small but covers every construct the FIRMRES analyses
// depend on — register moves, ALU arithmetic, memory loads/stores,
// conditional branches, direct/indirect/import calls, and returns.
//
// Encoding is a fixed 8 bytes per instruction:
//
//	byte 0   opcode
//	byte 1   rd  (destination register)
//	byte 2   rs1 (first source register)
//	byte 3   rs2 (second source register)
//	byte 4-7 imm (little-endian signed 32-bit immediate)
//
// The fixed width keeps the decoder trivial while remaining realistic enough
// for the P-Code lifter (internal/pcode) to exercise the same operation
// vocabulary Ghidra produces for real firmware.
package isa

import (
	"encoding/binary"
	"fmt"
)

// InstrSize is the fixed encoded size of one instruction in bytes.
const InstrSize = 8

// Reg identifies one of the 16 general-purpose registers.
type Reg uint8

// Register file. By convention R1..R6 carry call arguments, R1 carries the
// return value, SP is the stack pointer, and RA holds the return address.
const (
	R0 Reg = iota // always-zero register
	R1            // return value / first argument
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	R12
	R13
	SP // stack pointer
	RA // return address
)

// NumRegs is the size of the register file.
const NumRegs = 16

// NumArgRegs is the number of registers used to pass call arguments (R1..R6).
const NumArgRegs = 6

// ArgReg returns the register carrying argument i (0-based).
// It panics if i is outside the calling convention; callers validate arity
// against NumArgRegs before emitting calls.
func ArgReg(i int) Reg {
	if i < 0 || i >= NumArgRegs {
		panic(fmt.Sprintf("isa: argument index %d outside calling convention", i))
	}
	return R1 + Reg(i)
}

// regNames precomputes the in-range register names; Reg.String sits on
// hot rendering paths and must not format.
var regNames = func() (n [NumRegs]string) {
	for r := range n {
		n[r] = fmt.Sprintf("r%d", r)
	}
	n[SP] = "sp"
	n[RA] = "ra"
	return
}()

// String returns the conventional assembly name of the register.
func (r Reg) String() string {
	if r < NumRegs {
		return regNames[r]
	}
	return fmt.Sprintf("reg?%d", uint8(r))
}

// Valid reports whether the register index is within the register file.
func (r Reg) Valid() bool { return r < NumRegs }

// Opcode enumerates the instruction operations.
type Opcode uint8

// Instruction opcodes. The zero value is deliberately invalid so that
// all-zero bytes decode to an error rather than a silent NOP.
const (
	OpInvalid Opcode = iota

	OpNop
	OpLI  // rd = imm
	OpLA  // rd = imm (address of a data-segment object)
	OpMov // rd = rs1

	OpAdd  // rd = rs1 + rs2
	OpSub  // rd = rs1 - rs2
	OpMul  // rd = rs1 * rs2
	OpDiv  // rd = rs1 / rs2
	OpAddI // rd = rs1 + imm
	OpAnd  // rd = rs1 & rs2
	OpOr   // rd = rs1 | rs2
	OpXor  // rd = rs1 ^ rs2
	OpShl  // rd = rs1 << rs2
	OpShr  // rd = rs1 >> rs2

	OpLW // rd = mem32[rs1 + imm]
	OpSW // mem32[rs1 + imm] = rs2
	OpLB // rd = mem8[rs1 + imm]
	OpSB // mem8[rs1 + imm] = rs2

	OpBeq // if rs1 == rs2 goto imm
	OpBne // if rs1 != rs2 goto imm
	OpBlt // if rs1 <  rs2 goto imm (signed)
	OpBge // if rs1 >= rs2 goto imm (signed)
	OpJmp // goto imm

	OpCall  // call local function at absolute address imm
	OpCallI // call imported (external) function, import index imm, arity rs1
	OpCallR // call function whose address is in rs1
	OpRet   // return to caller

	opMax // sentinel; keep last
)

var opcodeNames = map[Opcode]string{
	OpNop: "nop", OpLI: "li", OpLA: "la", OpMov: "mov",
	OpAdd: "add", OpSub: "sub", OpMul: "mul", OpDiv: "div", OpAddI: "addi",
	OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl", OpShr: "shr",
	OpLW: "lw", OpSW: "sw", OpLB: "lb", OpSB: "sb",
	OpBeq: "beq", OpBne: "bne", OpBlt: "blt", OpBge: "bge", OpJmp: "jmp",
	OpCall: "call", OpCallI: "calli", OpCallR: "callr", OpRet: "ret",
}

// String returns the assembly mnemonic of the opcode.
func (o Opcode) String() string {
	if s, ok := opcodeNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op?%d", uint8(o))
}

// Valid reports whether o is a defined opcode.
func (o Opcode) Valid() bool { return o > OpInvalid && o < opMax }

// IsBranch reports whether the opcode is a conditional branch.
func (o Opcode) IsBranch() bool {
	switch o {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsCall reports whether the opcode transfers control to another function.
func (o Opcode) IsCall() bool {
	switch o {
	case OpCall, OpCallI, OpCallR:
		return true
	}
	return false
}

// IsTerminator reports whether the opcode unconditionally ends a basic block
// (branches also end blocks but fall through on the false edge).
func (o Opcode) IsTerminator() bool {
	return o == OpJmp || o == OpRet
}

// Instruction is one decoded machine instruction.
type Instruction struct {
	Op  Opcode
	Rd  Reg
	Rs1 Reg
	Rs2 Reg
	Imm int32
}

// Encode appends the 8-byte encoding of the instruction to dst and returns
// the extended slice.
func (in Instruction) Encode(dst []byte) []byte {
	var buf [InstrSize]byte
	buf[0] = byte(in.Op)
	buf[1] = byte(in.Rd)
	buf[2] = byte(in.Rs1)
	buf[3] = byte(in.Rs2)
	binary.LittleEndian.PutUint32(buf[4:], uint32(in.Imm))
	return append(dst, buf[:]...)
}

// Decode decodes a single instruction from b.
func Decode(b []byte) (Instruction, error) {
	if len(b) >= InstrSize {
		if in := fields(b); in.valid() {
			return in, nil
		}
	}
	return Instruction{}, decodeError(b)
}

// fields reads the fields of the instruction encoded in b[:InstrSize],
// without checking them. It and valid are small enough to inline, so a
// decode loop makes no call per instruction.
func fields(b []byte) Instruction {
	_ = b[InstrSize-1]
	return Instruction{
		Op:  Opcode(b[0]),
		Rd:  Reg(b[1]),
		Rs1: Reg(b[2]),
		Rs2: Reg(b[3]),
		Imm: int32(binary.LittleEndian.Uint32(b[4:8])),
	}
}

func (in Instruction) valid() bool {
	return in.Op.Valid() && in.Rd.Valid() && in.Rs1.Valid() && in.Rs2.Valid()
}

// decodeError describes why b does not decode to an instruction.
func decodeError(b []byte) error {
	switch {
	case len(b) < InstrSize:
		return fmt.Errorf("isa: truncated instruction: %d bytes", len(b))
	case !Opcode(b[0]).Valid():
		return fmt.Errorf("isa: invalid opcode %d", b[0])
	default:
		return fmt.Errorf("isa: register index out of range in %s", Opcode(b[0]))
	}
}

// DecodeAll decodes a text segment into instructions. The byte length must be
// a multiple of InstrSize.
func DecodeAll(text []byte) ([]Instruction, error) {
	return DecodeAppend(nil, text)
}

// DecodeAppend decodes text into dst, reusing its capacity — the
// allocation-free form the lifter's pooled scratch buffers use. On error
// the (possibly grown) dst is still returned so a pooled buffer keeps its
// capacity.
func DecodeAppend(dst []Instruction, text []byte) ([]Instruction, error) {
	if len(text)%InstrSize != 0 {
		return dst, fmt.Errorf("isa: text length %d not a multiple of %d", len(text), InstrSize)
	}
	if need := len(dst) + len(text)/InstrSize; cap(dst) < need {
		grown := make([]Instruction, len(dst), need)
		copy(grown, dst)
		dst = grown
	}
	for off := 0; off < len(text); off += InstrSize {
		in := fields(text[off:])
		if !in.valid() {
			return dst, fmt.Errorf("isa: at offset %#x: %w", off, decodeError(text[off:]))
		}
		dst = append(dst, in)
	}
	return dst, nil
}

// String renders the instruction in assembly syntax.
func (in Instruction) String() string {
	switch in.Op {
	case OpNop, OpRet:
		return in.Op.String()
	case OpLI, OpLA:
		return fmt.Sprintf("%s %s, %#x", in.Op, in.Rd, uint32(in.Imm))
	case OpMov:
		return fmt.Sprintf("%s %s, %s", in.Op, in.Rd, in.Rs1)
	case OpAddI:
		return fmt.Sprintf("%s %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpAdd, OpSub, OpMul, OpDiv, OpAnd, OpOr, OpXor, OpShl, OpShr:
		return fmt.Sprintf("%s %s, %s, %s", in.Op, in.Rd, in.Rs1, in.Rs2)
	case OpLW, OpLB:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rd, in.Imm, in.Rs1)
	case OpSW, OpSB:
		return fmt.Sprintf("%s %s, %d(%s)", in.Op, in.Rs2, in.Imm, in.Rs1)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s %s, %s, %#x", in.Op, in.Rs1, in.Rs2, uint32(in.Imm))
	case OpJmp, OpCall:
		return fmt.Sprintf("%s %#x", in.Op, uint32(in.Imm))
	case OpCallI:
		return fmt.Sprintf("%s import#%d", in.Op, in.Imm)
	case OpCallR:
		return fmt.Sprintf("%s %s", in.Op, in.Rs1)
	default:
		return fmt.Sprintf("%s rd=%s rs1=%s rs2=%s imm=%d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}
