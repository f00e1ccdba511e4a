package taint

import (
	"math/rand"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/externs"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// TestRandomProgramsDoNotPanic drives the full lift+taint stack over
// randomly generated (but well-formed) programs: arbitrary ALU/memory/call
// soup around a delivery callsite. The engine must terminate within budget
// and never panic, whatever the dataflow shape.
func TestRandomProgramsDoNotPanic(t *testing.T) {
	callables := []string{
		"nvram_get", "config_read", "getenv", "strdup", "malloc", "time",
		"strlen", "atoi", "urlencode", "rand",
	}
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := asm.New("fuzz")
		buf := a.Bytes("buf", make([]byte, 64))

		helper := a.Func("helper", 2, true)
		emitRandomOps(rng, helper, buf, callables, 10)
		helper.Ret()

		f := a.Func("main", 0, true)
		emitRandomOps(rng, f, buf, callables, 25)
		f.Call("helper")
		// Deliver something: whatever happens to be in R2.
		f.LI(isa.R1, 5)
		f.LI(isa.R3, 32)
		f.CallImport("SSL_write", 3)
		f.Ret()

		bin, err := a.Link()
		if err != nil {
			t.Fatalf("seed %d: Link: %v", seed, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("seed %d: Lift: %v", seed, err)
		}
		mfts := analyzeProg(prog, Options{MaxDepth: 16, MaxNodes: 256})
		if len(mfts) != 1 {
			t.Fatalf("seed %d: %d MFTs", seed, len(mfts))
		}
		if size := mfts[0].Root.Size(); size > 4096 {
			t.Errorf("seed %d: tree size %d exceeds budget", seed, size)
		}
		// Paths must be well-formed whatever the program shape.
		for _, p := range mfts[0].Paths() {
			if p[0].Kind != NodeRoot || !p[len(p)-1].Leaf() {
				t.Fatalf("seed %d: malformed path", seed)
			}
		}
	}
}

// emitRandomOps appends n random instructions drawn from a mix of ALU ops,
// loads/stores, string-library calls, and branches.
func emitRandomOps(rng *rand.Rand, f *asm.FuncBuilder, buf uint32, callables []string, n int) {
	regs := []isa.Reg{isa.R2, isa.R3, isa.R4, isa.R5, isa.R6, isa.R7, isa.R8, isa.R9}
	reg := func() isa.Reg { return regs[rng.Intn(len(regs))] }
	for i := 0; i < n; i++ {
		switch rng.Intn(9) {
		case 0:
			f.LI(reg(), int32(rng.Intn(1<<16)))
		case 1:
			f.LA(reg(), buf+uint32(rng.Intn(32)))
		case 2:
			f.Mov(reg(), reg())
		case 3:
			f.Add(reg(), reg(), reg())
		case 4:
			f.SW(isa.SP, int32(-4*(1+rng.Intn(6))), reg())
		case 5:
			f.LW(reg(), isa.SP, int32(-4*(1+rng.Intn(6))))
		case 6:
			name := callables[rng.Intn(len(callables))]
			sig, _ := externs.Lookup(name)
			arity := sig.NumParams
			if arity == externs.Variadic {
				arity = 1 + rng.Intn(3)
			}
			for j := 0; j < arity; j++ {
				f.LI(isa.ArgReg(j), int32(rng.Intn(64)))
			}
			f.CallImport(name, arity)
		case 7:
			// strcat into the shared buffer.
			f.LA(isa.R1, buf)
			f.Mov(isa.R2, reg())
			f.CallImport("strcat", 2)
		case 8:
			skip := f.NewLabel()
			f.Beq(reg(), reg(), skip)
			f.AddI(reg(), reg(), 1)
			f.Bind(skip)
		}
	}
}

// TestDeepCallChain exercises caller/callee crossing depth: a value passed
// down a 20-deep call chain and delivered at the bottom must trace back to
// the top-level constant without blowing the depth budget.
func TestDeepCallChain(t *testing.T) {
	a := asm.New("deep")
	const depth = 20
	// Bottom: delivers its parameter.
	bottom := a.Func("f00", 1, true)
	bottom.Mov(isa.R2, isa.R1)
	bottom.LI(isa.R1, 5)
	bottom.LI(isa.R3, 16)
	bottom.CallImport("SSL_write", 3)
	bottom.Ret()
	// Chain: each level forwards its parameter.
	for i := 1; i < depth; i++ {
		f := a.Func(fnName(i), 1, true)
		f.Call(fnName(i - 1))
		f.Ret()
	}
	top := a.Func("main", 0, true)
	top.LAStr(isa.R1, "the-payload")
	top.Call(fnName(depth - 1))
	top.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	mfts := analyzeProg(prog, Options{})
	if len(mfts) != 1 {
		t.Fatalf("%d MFTs", len(mfts))
	}
	var found bool
	for _, leaf := range mfts[0].Fields() {
		if leaf.Kind == LeafString && leaf.StrVal == "the-payload" {
			found = true
		}
	}
	if !found {
		t.Error("payload constant not recovered through the 20-deep chain")
	}
}

func fnName(i int) string {
	return "f" + string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestDiamondReachingDefsProduceAlternatives: a message built differently
// on two branches yields both constructions as tree alternatives.
func TestDiamondReachingDefsProduceAlternatives(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 1, true)
	other := f.NewLabel()
	join := f.NewLabel()
	f.LI(isa.R9, 1)
	f.Beq(isa.R1, isa.R9, other)
	f.LAStr(isa.R2, "path-a")
	f.Jmp(join)
	f.Bind(other)
	f.LAStr(isa.R2, "path-b")
	f.Bind(join)
	f.LI(isa.R1, 5)
	f.LI(isa.R3, 8)
	f.CallImport("SSL_write", 3)
	f.Ret()

	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	mfts := analyzeProg(prog, Options{})
	got := map[string]bool{}
	for _, leaf := range mfts[0].Fields() {
		if leaf.Kind == LeafString {
			got[leaf.StrVal] = true
		}
	}
	if !got["path-a"] || !got["path-b"] {
		t.Errorf("diamond alternatives = %v, want both branches", got)
	}
}

// TestNoStoreChannelOption verifies the precise-taint ablation knob.
func TestNoStoreChannelOption(t *testing.T) {
	a := asm.New("t")
	buf := a.Bytes("msg", make([]byte, 64))
	f := a.Func("f", 0, true)
	f.LA(isa.R1, buf)
	f.LAStr(isa.R2, "x=")
	f.CallImport("strcpy", 2)
	f.LA(isa.R5, buf)
	f.LI(isa.R6, 0x1234)
	f.SW(isa.R5, 8, isa.R6)
	f.LI(isa.R1, 3)
	f.LA(isa.R2, buf)
	f.LI(isa.R3, 16)
	f.LI(isa.R4, 0)
	f.CallImport("send", 4)
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatal(err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatal(err)
	}
	count := func(opts Options) (numeric int) {
		for _, m := range analyzeProg(prog, opts) {
			for _, leaf := range m.Fields() {
				if leaf.Kind == LeafNumeric {
					numeric++
				}
			}
		}
		return numeric
	}
	if n := count(Options{}); n != 1 {
		t.Errorf("over-taint numeric leaves = %d, want 1", n)
	}
	if n := count(Options{NoStoreChannel: true}); n != 0 {
		t.Errorf("precise-taint numeric leaves = %d, want 0", n)
	}
}
