package cfg

import (
	"testing"

	"firmres/internal/asm"
	"firmres/internal/isa"
	"firmres/internal/pcode"
)

// diamond builds:
//
//	  b0 (cmp, cbranch)
//	 /  \
//	b1   b2
//	 \  /
//	  b3 (ret)
func diamond(t *testing.T) *pcode.Function {
	t.Helper()
	a := asm.New("t")
	f := a.Func("f", 2, true)
	elseL := f.NewLabel()
	endL := f.NewLabel()
	f.Beq(isa.R1, isa.R2, elseL) // b0
	f.LI(isa.R3, 1)              // b1
	f.Jmp(endL)
	f.Bind(elseL)
	f.LI(isa.R3, 2) // b2
	f.Bind(endL)
	f.Mov(isa.R1, isa.R3) // b3
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	fn, err := pcode.Lift(bin, bin.Funcs[0])
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	return fn
}

func TestDiamondShape(t *testing.T) {
	g := Build(diamond(t))
	if len(g.Blocks) != 4 {
		t.Fatalf("got %d blocks, want 4", len(g.Blocks))
	}
	b0, b1, b2, b3 := g.Blocks[0], g.Blocks[1], g.Blocks[2], g.Blocks[3]
	if len(b0.Succs) != 2 {
		t.Errorf("entry succs = %v", b0.Succs)
	}
	if len(b1.Succs) != 1 || b1.Succs[0] != b3.ID {
		t.Errorf("then-block succs = %v", b1.Succs)
	}
	if len(b2.Succs) != 1 || b2.Succs[0] != b3.ID {
		t.Errorf("else-block succs = %v", b2.Succs)
	}
	if len(b3.Preds) != 2 || len(b3.Succs) != 0 {
		t.Errorf("join block preds=%v succs=%v", b3.Preds, b3.Succs)
	}
}

func TestBlockOf(t *testing.T) {
	fn := diamond(t)
	g := Build(fn)
	for bi := range g.Blocks {
		b := &g.Blocks[bi]
		for i := b.Start; i < b.End; i++ {
			if got := g.BlockOf(i); got != b {
				t.Errorf("BlockOf(%d) = block %d, want %d", i, got.ID, b.ID)
			}
		}
	}
	if g.BlockOf(-1) != nil || g.BlockOf(len(fn.Ops)) != nil {
		t.Error("BlockOf out of range returned a block")
	}
}

func TestReversePostOrderStartsAtEntry(t *testing.T) {
	g := Build(diamond(t))
	rpo := g.ReversePostOrder()
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("RPO covers %d of %d blocks", len(rpo), len(g.Blocks))
	}
	if rpo[0] != 0 {
		t.Errorf("RPO starts at block %d", rpo[0])
	}
	// The join block must come after both arms.
	pos := make(map[int]int)
	for i, b := range rpo {
		pos[b] = i
	}
	if pos[3] < pos[1] || pos[3] < pos[2] {
		t.Errorf("join block ordered before an arm: %v", rpo)
	}
}

func TestLoopShape(t *testing.T) {
	a := asm.New("t")
	f := a.Func("loop", 1, true)
	f.LI(isa.R2, 0)
	top := f.NewLabel()
	done := f.NewLabel()
	f.Bind(top)
	f.Bge(isa.R2, isa.R1, done)
	f.AddI(isa.R2, isa.R2, 1)
	f.Jmp(top)
	f.Bind(done)
	f.Ret()
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	fn, err := pcode.Lift(bin, bin.Funcs[0])
	if err != nil {
		t.Fatalf("Lift: %v", err)
	}
	g := Build(fn)
	// A back edge must exist: some block's successor has a smaller start.
	var hasBackEdge bool
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if g.Blocks[s].Start <= b.Start {
				hasBackEdge = true
			}
		}
	}
	if !hasBackEdge {
		t.Error("loop CFG has no back edge")
	}
	for _, b := range g.Blocks {
		if !g.EntryReaches(b.ID) {
			t.Errorf("block %d unreachable in a simple loop", b.ID)
		}
	}
}

func TestStraightLineSingleBlock(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	f.LI(isa.R1, 1)
	f.AddI(isa.R1, isa.R1, 2)
	f.Ret()
	bin, _ := a.Link()
	fn, _ := pcode.Lift(bin, bin.Funcs[0])
	g := Build(fn)
	if len(g.Blocks) != 1 {
		t.Fatalf("straight-line code has %d blocks", len(g.Blocks))
	}
	if len(g.Blocks[0].Succs) != 0 {
		t.Errorf("terminal block has successors %v", g.Blocks[0].Succs)
	}
}

func TestBranchToNopTarget(t *testing.T) {
	// A branch that targets a NOP (which lifts to zero ops) must land on the
	// next real op instead of being dropped.
	a := asm.New("t")
	f := a.Func("f", 2, true)
	l := f.NewLabel()
	f.Beq(isa.R1, isa.R2, l)
	f.LI(isa.R3, 1)
	f.Bind(l)
	f.Nop()
	f.Mov(isa.R1, isa.R3)
	f.Ret()
	bin, _ := a.Link()
	fn, _ := pcode.Lift(bin, bin.Funcs[0])
	g := Build(fn)
	entry := g.Blocks[0]
	if len(entry.Succs) != 2 {
		t.Fatalf("entry succs = %v, want 2 (branch over nop)", entry.Succs)
	}
}

func TestEmptyFunctionGraph(t *testing.T) {
	g := Build(&pcode.Function{})
	if len(g.Blocks) != 0 || g.ReversePostOrder() != nil {
		t.Error("empty function produced blocks")
	}
	if g.EntryReaches(0) {
		t.Error("EntryReaches on empty graph")
	}
}

func TestUnreachableBlockAppendedToRPO(t *testing.T) {
	a := asm.New("t")
	f := a.Func("f", 0, true)
	done := f.NewLabel()
	f.Jmp(done)
	f.LI(isa.R1, 99) // dead code
	f.Bind(done)
	f.Ret()
	bin, _ := a.Link()
	fn, _ := pcode.Lift(bin, bin.Funcs[0])
	g := Build(fn)
	rpo := g.ReversePostOrder()
	if len(rpo) != len(g.Blocks) {
		t.Fatalf("RPO misses blocks: %v of %d", rpo, len(g.Blocks))
	}
	var deadID = -1
	for _, b := range g.Blocks {
		if !g.EntryReaches(b.ID) {
			deadID = b.ID
		}
	}
	if deadID == -1 {
		t.Fatal("expected an unreachable block")
	}
	if rpo[len(rpo)-1] != deadID {
		t.Errorf("unreachable block not appended last: %v", rpo)
	}
}
