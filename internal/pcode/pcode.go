// Package pcode defines the register-transfer IR the FIRMRES analyses run
// on, mirroring Ghidra's P-Code/Varnode representation (§IV-C of the paper),
// and a lifter that translates synthetic-ISA machine code into it.
//
// Each machine instruction lifts to one or more P-Code operations of the
// form <Address: Output OP Input1, Input2, ...>, where operands are
// Varnodes — typed references into one of four address spaces (constants,
// registers, temporaries, RAM).
//
// A lift decodes each function once, sizes its P-Code expansion from the
// decoded code, carves the function's ops, inputs, call targets and
// tables from the program's slabs (slab.Slab, the one allocator of a
// set) and lifts it. A Program recycled for another binary (Recycle,
// Lift) keeps its slabs, consolidated to what it last carved, its
// function shells and their interning tables, and its decode buffer;
// a release clears the slabs, so an idle program pins nothing of its
// binary.
package pcode

import (
	"fmt"

	"firmres/internal/externs"
	"firmres/internal/isa"
)

// Space identifies a Varnode address space.
type Space uint8

// Varnode address spaces.
const (
	SpaceConst  Space = iota + 1 // constant value (Offset is the value)
	SpaceReg                     // register file (Offset = 4 * register index)
	SpaceUnique                  // compiler/lifter temporaries
	SpaceRAM                     // memory
)

// String returns Ghidra's conventional space name.
func (s Space) String() string {
	switch s {
	case SpaceConst:
		return "const"
	case SpaceReg:
		return "register"
	case SpaceUnique:
		return "unique"
	case SpaceRAM:
		return "ram"
	default:
		return fmt.Sprintf("space?%d", uint8(s))
	}
}

// Varnode is one operand: an address-space slot of a given byte size.
// Offset comes first so the two byte-sized fields share one word: every op
// and op input of a lifted program is a Varnode.
type Varnode struct {
	Offset uint64
	Space  Space
	Size   uint8
}

// Constant returns a const-space varnode holding v.
func Constant(v uint64, size uint8) Varnode {
	return Varnode{Space: SpaceConst, Offset: v, Size: size}
}

// Register returns the varnode for a machine register.
func Register(r isa.Reg) Varnode {
	return Varnode{Space: SpaceReg, Offset: uint64(r) * 4, Size: 4}
}

// Reg recovers the machine register index of a register-space varnode.
// The second result is false for non-register varnodes.
func (v Varnode) Reg() (isa.Reg, bool) {
	if v.Space != SpaceReg || v.Offset%4 != 0 || v.Offset >= isa.NumRegs*4 {
		return 0, false
	}
	return isa.Reg(v.Offset / 4), true
}

// IsConst reports whether the varnode is a constant.
func (v Varnode) IsConst() bool { return v.Space == SpaceConst }

// String renders the varnode in Ghidra's tuple syntax.
func (v Varnode) String() string {
	if r, ok := v.Reg(); ok {
		return fmt.Sprintf("(register, %s, %d)", r, v.Size)
	}
	return fmt.Sprintf("(%s, %#x, %d)", v.Space, v.Offset, v.Size)
}

// OpCode enumerates P-Code operations. The subset matches what the lifter
// emits for the synthetic ISA, using Ghidra's operation names.
type OpCode uint8

// P-Code operations.
const (
	COPY OpCode = iota + 1
	LOAD
	STORE
	INT_ADD
	INT_SUB
	INT_MULT
	INT_DIV
	INT_AND
	INT_OR
	INT_XOR
	INT_LEFT
	INT_RIGHT
	INT_EQUAL
	INT_NOTEQUAL
	INT_SLESS
	BOOL_NEGATE
	CBRANCH
	BRANCH
	CALL
	CALLIND
	RETURN
	MULTIEQUAL // φ-node placeholder used by dataflow summaries
)

var opNames = map[OpCode]string{
	COPY: "COPY", LOAD: "LOAD", STORE: "STORE",
	INT_ADD: "INT_ADD", INT_SUB: "INT_SUB", INT_MULT: "INT_MULT", INT_DIV: "INT_DIV",
	INT_AND: "INT_AND", INT_OR: "INT_OR", INT_XOR: "INT_XOR",
	INT_LEFT: "INT_LEFT", INT_RIGHT: "INT_RIGHT",
	INT_EQUAL: "INT_EQUAL", INT_NOTEQUAL: "INT_NOTEQUAL", INT_SLESS: "INT_SLESS",
	BOOL_NEGATE: "BOOL_NEGATE", CBRANCH: "CBRANCH", BRANCH: "BRANCH",
	CALL: "CALL", CALLIND: "CALLIND", RETURN: "RETURN", MULTIEQUAL: "MULTIEQUAL",
}

// String returns the Ghidra-style operation name.
func (o OpCode) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("OP?%d", uint8(o))
}

// IsComparison reports whether the op produces a predicate operand — the
// unit counted by the string-parsing factor of §IV-A.
func (o OpCode) IsComparison() bool {
	switch o {
	case INT_EQUAL, INT_NOTEQUAL, INT_SLESS:
		return true
	}
	return false
}

// CallKind classifies a CALL target.
type CallKind uint8

// Call target kinds.
const (
	CallLocal    CallKind = iota + 1 // direct call to a function in this binary
	CallImported                     // call through the import table
	CallIndirect                     // call through a register
)

// CallTarget carries call metadata for CALL/CALLIND operations. Fields
// are ordered so that the small ones share a word (48 bytes).
type CallTarget struct {
	Name string // resolved callee name ("" for indirect)
	// Sig is the externs.Table row of an imported callee, resolved once at
	// lift time by name: nil for local and indirect calls and for imports
	// the table does not model.
	Sig       *externs.Sig
	Import    int    // import index for CallImported
	Arity     int    // argument count at this callsite
	Addr      uint32 // callee address for CallLocal
	Kind      CallKind
	HasResult bool
}

// Op is one P-Code operation. Fields are ordered so that the small ones
// share a word (64 bytes per op instead of 88).
type Op struct {
	Inputs []Varnode
	Call   *CallTarget // non-nil for CALL/CALLIND
	Output Varnode     // zero Varnode when the op has no output
	Seq    int         // ordinal within the instruction's expansion
	Addr   uint32      // address of the originating machine instruction
	Code   OpCode
	HasOut bool
}

// BranchTarget returns the destination address of a BRANCH/CBRANCH op.
func (op *Op) BranchTarget() (uint32, bool) {
	if (op.Code == BRANCH || op.Code == CBRANCH) && len(op.Inputs) > 0 && op.Inputs[0].IsConst() {
		return uint32(op.Inputs[0].Offset), true
	}
	return 0, false
}

// String renders the op in the paper's <Address: Output OP Inputs> form.
func (op *Op) String() string {
	s := fmt.Sprintf("%#x.%d: ", op.Addr, op.Seq)
	if op.HasOut {
		s += op.Output.String() + " = "
	}
	s += op.Code.String()
	if op.Call != nil && op.Call.Name != "" {
		s += " <" + op.Call.Name + ">"
	}
	for i, in := range op.Inputs {
		if i == 0 {
			s += " "
		} else {
			s += ", "
		}
		s += in.String()
	}
	return s
}
