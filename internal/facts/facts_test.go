package facts

import (
	"sync"
	"testing"

	"firmres/internal/asm"
	"firmres/internal/binfmt"
	"firmres/internal/isa"
	"firmres/internal/obs"
	"firmres/internal/pcode"
)

func liftProg(t *testing.T, build func(*asm.Assembler)) *pcode.Program {
	t.Helper()
	a := asm.New("t")
	build(a)
	bin, err := a.Link()
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	prog, err := pcode.LiftProgram(bin)
	if err != nil {
		t.Fatalf("LiftProgram: %v", err)
	}
	return prog
}

func twoFuncProg(t *testing.T) *pcode.Program {
	t.Helper()
	return liftProg(t, func(a *asm.Assembler) {
		f := a.Func("callee", 0, true)
		f.LAStr(isa.R1, "hello")
		f.Ret()
		g := a.Func("caller", 0, true)
		g.Call("callee")
		g.Ret()
	})
}

// TestSingleFlight: concurrent requests for the same function's artifacts
// all receive the same shared solution pointers.
func TestSingleFlight(t *testing.T) {
	prog := twoFuncProg(t)
	fx := New(prog)
	fn := prog.Funcs[0]

	const workers = 16
	handles := make([]*Func, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h := fx.Func(fn)
			h.CFG()
			h.DefUse()
			h.Consts()
			h.Idom()
			handles[i] = h
		}(i)
	}
	wg.Wait()
	base := handles[0]
	for i, h := range handles {
		if h != base {
			t.Fatalf("handle %d differs: %p vs %p", i, h, base)
		}
	}
	if base.CFG() != base.CFG() || base.DefUse() != base.DefUse() ||
		base.Consts() != base.Consts() {
		t.Error("artifact getters are not stable")
	}
}

// TestFuncHandlesAreDistinctPerFunction: different functions get different
// handles with independently computed artifacts.
func TestFuncHandlesAreDistinctPerFunction(t *testing.T) {
	prog := twoFuncProg(t)
	if len(prog.Funcs) < 2 {
		t.Fatalf("want 2 funcs, got %d", len(prog.Funcs))
	}
	fx := New(prog)
	a, b := fx.Func(prog.Funcs[0]), fx.Func(prog.Funcs[1])
	if a == b {
		t.Fatal("distinct functions share a handle")
	}
	if a.CFG() == b.CFG() {
		t.Error("distinct functions share a CFG")
	}
}

// TestRelease: releasing a set hands its store, program and artifact
// storage to the next Lift, which starts with fresh handles (the
// single-flight guarantee is scoped by the release) and rebuilds every
// artifact, call graph included, for the new program; a store New built is
// not a set, and releasing it recycles nothing.
func TestRelease(t *testing.T) {
	prog := twoFuncProg(t)
	fx, err := Lift(prog.Bin)
	if err != nil {
		t.Fatal(err)
	}
	before := fx.Func(fx.Prog().Funcs[0])
	before.CFG()
	before.Consts()
	fx.CallGraph()
	fx.Release()

	met := obs.NewMetrics()
	again, err := Lift(prog.Bin, WithMetrics(met))
	if err != nil {
		t.Fatal(err)
	}
	if again != fx {
		t.Fatal("Release did not recycle the set")
	}
	if other, _ := Lift(prog.Bin); other == again {
		t.Fatal("a set released once was handed out twice")
	}
	h := again.Func(again.Prog().Funcs[0])
	fresh := New(prog)
	if got, want := len(h.CFG().Blocks), len(fresh.Func(prog.Funcs[0]).CFG().Blocks); got != want {
		t.Errorf("recycled CFG has %d blocks, want %d", got, want)
	}
	if got, want := len(again.CallGraph().Edges()), len(fresh.CallGraph().Edges()); got != want {
		t.Errorf("recycled call graph has %d edges, want %d", got, want)
	}
	snap := met.Snapshot()
	for _, art := range []string{"cfg", "callgraph"} {
		if n := snap[`facts_builds_total{artifact="`+art+`"}`]; n != 1 {
			t.Errorf("recycled store built %s %d times, want 1", art, n)
		}
	}
	// The refreshed handle still single-flights its own artifacts.
	if h.Consts() != h.Consts() {
		t.Error("refreshed handle artifacts are not stable")
	}
	again.Release()
	fresh.Release()
	if next, err := Lift(prog.Bin); err != nil || next != again {
		t.Errorf("releasing a New store displaced the recycled set (err %v)", err)
	}
}

// TestFailedLiftRecyclesSet: a lift that fails hands its set straight
// back to the free list, where the next lift finds it.
func TestFailedLiftRecyclesSet(t *testing.T) {
	prog := twoFuncProg(t)
	bad := *prog.Bin
	bad.Funcs = append([]binfmt.FuncSym(nil), prog.Bin.Funcs...)
	bad.Funcs[len(bad.Funcs)-1].Size = 1 << 20 // beyond the text section
	set, err := Lift(prog.Bin)
	if err != nil {
		t.Fatal(err)
	}
	set.Release()
	if fx, err := Lift(&bad); err == nil {
		t.Fatalf("Lift of a corrupt binary succeeded (%v)", fx != nil)
	}
	again, err := Lift(prog.Bin)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Release()
	if again != set {
		t.Error("the set of a failed lift was not handed back")
	}
}

// scratch is a Scratch that counts its recycles and scrubs.
type scratch struct{ recycles, scrubs int }

func (s *scratch) Recycle(scrub bool) {
	s.recycles++
	if scrub {
		s.scrubs++
	}
}

// TestScratchRecycledWithSet: a set keeps its scratch across a release.
// The first request for each program readies the scratch the set kept,
// exactly once however many goroutines ask, every release recycles it
// and scrubs it only while ScrubReleased is on, a slot keeps its own
// scratch, and a store New built keeps its scratch to itself.
func TestScratchRecycledWithSet(t *testing.T) {
	prog := twoFuncProg(t)
	var readied []Scratch
	ready := func(p *Program, old Scratch) Scratch {
		if old == nil {
			old = new(scratch)
		}
		readied = append(readied, old)
		return old
	}
	fx, err := Lift(prog.Bin)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fx.Scratch(SlotSemantics, ready)
		}()
	}
	wg.Wait()
	first := fx.Scratch(SlotSemantics, ready)
	if len(readied) != 1 {
		t.Fatalf("readied %d times for one program, want 1", len(readied))
	}
	if other := fx.Scratch(SlotTaint, ready); other == first || len(readied) != 2 {
		t.Fatal("two slots share one scratch")
	}
	defer ScrubReleased(ScrubReleased(true))
	fx.Release()
	if s := first.(*scratch); s.recycles != 1 || s.scrubs != 1 {
		t.Errorf("a scrubbed release recycled the scratch %d times and scrubbed it %d times, want 1 and 1", s.recycles, s.scrubs)
	}
	again, err := Lift(prog.Bin)
	if err != nil || again != fx {
		t.Fatalf("Release did not recycle the set (err %v)", err)
	}
	if got := again.Scratch(SlotSemantics, ready); got != first || len(readied) != 3 {
		t.Errorf("the recycled set readied %d scratches, want its own kept one readied again", len(readied))
	}
	ScrubReleased(false)
	again.Release()
	if s := first.(*scratch); s.recycles != 2 || s.scrubs != 1 {
		t.Errorf("an unscrubbed release left %d recycles and %d scrubs, want 2 and 1", s.recycles, s.scrubs)
	}
	if New(prog).Scratch(SlotSemantics, ready) == first {
		t.Error("a store New built shares a set's scratch")
	}
}

// TestCallGraphOnce: the call graph is built once and shared, and reflects
// the program's edges.
func TestCallGraphOnce(t *testing.T) {
	prog := twoFuncProg(t)
	fx := New(prog)
	var wg sync.WaitGroup
	graphs := make([]any, 8)
	for i := range graphs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			graphs[i] = fx.CallGraph()
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(graphs); i++ {
		if graphs[i] != graphs[0] {
			t.Fatalf("call graph %d differs", i)
		}
	}
	var callee *pcode.Function
	for _, fn := range prog.Funcs {
		if fn.Name() == "callee" {
			callee = fn
		}
	}
	if callee == nil {
		t.Fatal("callee not lifted")
	}
	if len(fx.CallGraph().Callers(callee)) != 1 {
		t.Errorf("callee has %d callers, want 1", len(fx.CallGraph().Callers(callee)))
	}
}

// TestArgString: the string-constant helpers resolve a rodata argument at a
// callsite through the constprop solution.
func TestArgString(t *testing.T) {
	prog := liftProg(t, func(a *asm.Assembler) {
		f := a.Func("send", 0, true)
		f.LAStr(isa.R1, "bind_token")
		f.CallImport("config_read", 1)
		f.Ret()
	})
	fx := New(prog)
	sites := prog.CallSitesTo("config_read")
	if len(sites) != 1 {
		t.Fatalf("callsites = %d, want 1", len(sites))
	}
	site := sites[0]
	h := fx.Func(site.Fn)
	s, ok := h.ArgString(site.OpIdx, 0)
	if !ok || s != "bind_token" {
		t.Errorf("ArgString = %q, %v", s, ok)
	}
	if _, ok := h.ArgString(site.OpIdx, isa.NumArgRegs); ok {
		t.Error("out-of-range arg index resolved")
	}
	if _, ok := h.ArgString(site.OpIdx, -1); ok {
		t.Error("negative arg index resolved")
	}
}
