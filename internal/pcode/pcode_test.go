package pcode

import (
	"strings"
	"testing"
	"testing/quick"

	"firmres/internal/asm"
	"firmres/internal/isa"
)

// buildProgram assembles a small program exercising every lift path.
func buildProgram(t *testing.T) *Program {
	t.Helper()
	a := asm.New("t")

	helper := a.Func("helper", 2, true)
	helper.Add(isa.R1, isa.R1, isa.R2)
	helper.Ret()

	f := a.Func("main", 0, true)
	f.LI(isa.R1, 10)         // COPY const
	f.LAStr(isa.R2, "topic") // COPY const (data pointer)
	f.Mov(isa.R3, isa.R1)    // COPY reg
	f.Add(isa.R4, isa.R1, isa.R3)
	f.AddI(isa.R4, isa.R4, 1)
	f.LW(isa.R5, isa.SP, -4)
	f.SW(isa.SP, -8, isa.R5)
	f.LB(isa.R6, isa.R2, 0)
	f.SB(isa.R2, 1, isa.R6)
	done := f.NewLabel()
	f.Beq(isa.R1, isa.R3, done)
	f.Bne(isa.R1, isa.R3, done)
	f.Blt(isa.R1, isa.R3, done)
	f.Bge(isa.R1, isa.R3, done)
	f.Call("helper")
	f.CallImport("sprintf", 3)
	f.LAFunc(isa.R7, "helper")
	f.CallReg(isa.R7, 2)
	f.Bind(done)
	f.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	p, err := LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return p
}

func TestLiftCoversAllOpcodes(t *testing.T) {
	p := buildProgram(t)
	main, ok := p.FuncByName("main")
	if !ok {
		t.Fatal("main not lifted")
	}
	seen := map[OpCode]bool{}
	for i := range main.Ops {
		seen[main.Ops[i].Code] = true
	}
	for _, want := range []OpCode{COPY, INT_ADD, LOAD, STORE, INT_EQUAL,
		INT_NOTEQUAL, INT_SLESS, BOOL_NEGATE, CBRANCH, CALL, CALLIND, RETURN} {
		if !seen[want] {
			t.Errorf("lifted main lacks %s", want)
		}
	}
}

func TestLiftLoadStoreShape(t *testing.T) {
	p := buildProgram(t)
	main, _ := p.FuncByName("main")
	var loads, stores []*Op
	for i := range main.Ops {
		switch main.Ops[i].Code {
		case LOAD:
			loads = append(loads, &main.Ops[i])
		case STORE:
			stores = append(stores, &main.Ops[i])
		}
	}
	if len(loads) != 2 || len(stores) != 2 {
		t.Fatalf("loads=%d stores=%d, want 2/2", len(loads), len(stores))
	}
	// LOAD input must be the unique effective address computed by the
	// preceding INT_ADD at the same machine address.
	for _, ld := range loads {
		if ld.Inputs[0].Space != SpaceUnique {
			t.Errorf("LOAD at %#x input space = %v, want unique", ld.Addr, ld.Inputs[0].Space)
		}
		if !ld.HasOut {
			t.Errorf("LOAD at %#x has no output", ld.Addr)
		}
	}
	// Byte-width load must produce a 1-byte output varnode.
	if loads[1].Output.Size != 1 {
		t.Errorf("LB output size = %d, want 1", loads[1].Output.Size)
	}
}

func TestLiftCallMetadata(t *testing.T) {
	p := buildProgram(t)
	main, _ := p.FuncByName("main")
	var localCall, importCall, indirectCall *Op
	for i := range main.Ops {
		op := &main.Ops[i]
		if op.Call == nil {
			continue
		}
		switch op.Call.Kind {
		case CallLocal:
			localCall = op
		case CallImported:
			importCall = op
		case CallIndirect:
			indirectCall = op
		}
	}
	if localCall == nil || importCall == nil || indirectCall == nil {
		t.Fatal("missing call kinds")
	}
	if localCall.Call.Name != "helper" || localCall.Call.Arity != 2 {
		t.Errorf("local call = %+v", localCall.Call)
	}
	if len(localCall.Inputs) != 2 {
		t.Errorf("local call inputs = %d, want 2 (callee arity)", len(localCall.Inputs))
	}
	if r, ok := localCall.Inputs[0].Reg(); !ok || r != isa.R1 {
		t.Errorf("local call arg0 = %v", localCall.Inputs[0])
	}
	if importCall.Call.Name != "sprintf" || importCall.Call.Arity != 3 {
		t.Errorf("import call = %+v", importCall.Call)
	}
	if !importCall.HasOut {
		t.Error("sprintf call has no output despite HasResult")
	}
	if indirectCall.Inputs[0].Space != SpaceReg {
		t.Errorf("indirect call target operand = %v", indirectCall.Inputs[0])
	}
	// Indirect call carries target + 2 args.
	if len(indirectCall.Inputs) != 3 {
		t.Errorf("indirect call inputs = %d, want 3", len(indirectCall.Inputs))
	}
}

func TestBranchTargets(t *testing.T) {
	p := buildProgram(t)
	main, _ := p.FuncByName("main")
	var nBranches int
	for i := range main.Ops {
		op := &main.Ops[i]
		if op.Code != CBRANCH {
			continue
		}
		nBranches++
		target, ok := op.BranchTarget()
		if !ok {
			t.Fatalf("CBRANCH at %#x has no constant target", op.Addr)
		}
		if _, found := main.OpIndexAt(target); !found {
			// The target is the final ret; it must map to an op.
			t.Errorf("CBRANCH target %#x has no op index", target)
		}
		// Predicate operand must be a unique boolean.
		pred := op.Inputs[1]
		if pred.Space != SpaceUnique || pred.Size != 1 {
			t.Errorf("CBRANCH predicate = %v", pred)
		}
	}
	if nBranches != 4 {
		t.Errorf("lifted %d CBRANCHes, want 4", nBranches)
	}
}

func TestBgeLiftsToNegatedLess(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 2, true)
	l := f.NewLabel()
	f.Bge(isa.R1, isa.R2, l)
	f.Bind(l)
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	fn, err := Lift(bin, bin.Funcs[0])
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	if fn.Ops[0].Code != INT_SLESS || fn.Ops[1].Code != BOOL_NEGATE || fn.Ops[2].Code != CBRANCH {
		t.Errorf("bge expansion = %v %v %v", fn.Ops[0].Code, fn.Ops[1].Code, fn.Ops[2].Code)
	}
	// The negation must consume the INT_SLESS output.
	if fn.Ops[1].Inputs[0] != fn.Ops[0].Output {
		t.Error("BOOL_NEGATE does not consume INT_SLESS output")
	}
}

func TestSeqNumbersWithinInstruction(t *testing.T) {
	p := buildProgram(t)
	main, _ := p.FuncByName("main")
	for i := 1; i < len(main.Ops); i++ {
		prev, cur := &main.Ops[i-1], &main.Ops[i]
		if cur.Addr == prev.Addr && cur.Seq != prev.Seq+1 {
			t.Errorf("ops at %#x have seq %d then %d", cur.Addr, prev.Seq, cur.Seq)
		}
		if cur.Addr != prev.Addr && cur.Seq != 0 {
			t.Errorf("first op at %#x has seq %d", cur.Addr, cur.Seq)
		}
	}
}

func TestReturnCarriesResult(t *testing.T) {
	p := buildProgram(t)
	helper, _ := p.FuncByName("helper")
	ret := helper.Ops[len(helper.Ops)-1]
	if ret.Code != RETURN || len(ret.Inputs) != 1 {
		t.Fatalf("helper return = %+v", ret)
	}
	if r, ok := ret.Inputs[0].Reg(); !ok || r != isa.R1 {
		t.Errorf("return value operand = %v", ret.Inputs[0])
	}
}

func TestProgramIndexes(t *testing.T) {
	p := buildProgram(t)
	if len(p.Funcs) != 2 {
		t.Fatalf("program has %d funcs", len(p.Funcs))
	}
	helper, ok := p.FuncByName("helper")
	if !ok {
		t.Fatal("FuncByName(helper) missed")
	}
	if f2, ok := p.FuncAt(helper.Addr()); !ok || f2 != helper {
		t.Error("FuncAt(helper.Addr) mismatch")
	}
	sites := p.CallSitesTo("sprintf")
	if len(sites) != 1 {
		t.Fatalf("CallSitesTo(sprintf) = %d", len(sites))
	}
	if sites[0].Op().Call.Name != "sprintf" {
		t.Error("callsite op mismatch")
	}
	if len(p.CallSitesTo("nonesuch")) != 0 {
		t.Error("CallSitesTo(nonesuch) returned hits")
	}
}

func TestVarnodeHelpers(t *testing.T) {
	r := Register(isa.R3)
	if got, ok := r.Reg(); !ok || got != isa.R3 {
		t.Errorf("Reg() = %v, %v", got, ok)
	}
	c := Constant(42, 4)
	if !c.IsConst() || c.Offset != 42 {
		t.Errorf("Constant = %+v", c)
	}
	if _, ok := c.Reg(); ok {
		t.Error("const classified as register")
	}
	if s := r.String(); !strings.Contains(s, "register") || !strings.Contains(s, "r3") {
		t.Errorf("Register.String() = %q", s)
	}
}

// TestVarnodeRegRoundTripProperty: Register followed by Reg is the identity
// on the register file.
func TestVarnodeRegRoundTripProperty(t *testing.T) {
	f := func(r uint8) bool {
		reg := isa.Reg(r % isa.NumRegs)
		got, ok := Register(reg).Reg()
		return ok && got == reg
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOpString(t *testing.T) {
	op := Op{
		Addr: 0x12bd4, Code: CALL, HasOut: true, Output: Register(isa.R1),
		Inputs: []Varnode{Register(isa.R1)},
		Call:   &CallTarget{Kind: CallImported, Name: "printf"},
	}
	s := op.String()
	for _, want := range []string{"0x12bd4", "CALL", "printf"} {
		if !strings.Contains(s, want) {
			t.Errorf("Op.String() = %q, missing %q", s, want)
		}
	}
}

func TestLiftRejectsCorruptFunction(t *testing.T) {
	a := asm.New("t")
	f := a.Func("main", 0, false)
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	sym := bin.Funcs[0]
	sym.Size = 1 << 20 // beyond text
	if _, err := Lift(bin, sym); err == nil {
		t.Error("Lift accepted out-of-range function")
	}
}

// TestLoadBase recovers the base register of a pointer load, and rejects
// an op that is not one: the first op of a function, and an op after an
// INT_ADD that has no input to compare against (a void RETURN).
func TestLoadBase(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 1, false)
	f.LW(isa.R2, isa.R1, 8)
	f.AddI(isa.R3, isa.R3, 4)
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	fn, err := Lift(bin, bin.Funcs[0])
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	// Ops: 0 INT_ADD (ea = R1 + 8), 1 LOAD, 2 INT_ADD (R3 += 4), 3 RETURN.
	if len(fn.Ops) != 4 || fn.Ops[1].Code != LOAD || fn.Ops[3].Code != RETURN || len(fn.Ops[3].Inputs) != 0 {
		t.Fatalf("unexpected lift: %v", fn.Ops)
	}
	if base, ok := fn.LoadBase(1); !ok || base != Register(isa.R1) {
		t.Errorf("LoadBase(LOAD) = %v, %t; want %v", base, ok, Register(isa.R1))
	}
	for _, idx := range []int{0, 3, 4} {
		if base, ok := fn.LoadBase(idx); ok {
			t.Errorf("LoadBase(%d) = %v, want none", idx, base)
		}
	}
}

// TestFuncByNameLastInSymbolOrder: of two function symbols that share a
// name, FuncByName returns the one later in symbol order.
func TestFuncByNameLastInSymbolOrder(t *testing.T) {
	bin := buildProgram(t).Bin
	if len(bin.Funcs) < 2 {
		t.Fatalf("%d function symbols, want two", len(bin.Funcs))
	}
	bin.Funcs[0].Name = bin.Funcs[1].Name
	p, err := LiftProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	switch f, ok := p.FuncByName(bin.Funcs[1].Name); {
	case !ok:
		t.Errorf("FuncByName(%q) found nothing", bin.Funcs[1].Name)
	case f.Addr() != bin.Funcs[1].Addr:
		t.Errorf("FuncByName(%q) = the function at %#x, want the symbol at %#x", bin.Funcs[1].Name, f.Addr(), bin.Funcs[1].Addr)
	}
	if _, ok := p.FuncByName("absent"); ok {
		t.Error("FuncByName found an absent name")
	}
}
