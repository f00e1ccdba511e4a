package facts_test

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/callgraph"
	"firmres/internal/cfg"
	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/pcode"
	"firmres/internal/strip"
)

// crawlBinaries returns every binary executable of the crawl set — the 22
// corpus images and their 22 stripped twins, the stripped ones recovered
// as the pipeline recovers them before lifting — ordered so that each one
// alternates between the largest and the smallest left: every lift into a
// recycled set reuses storage a larger or a smaller program left behind.
func crawlBinaries(t testing.TB) []*binfmt.Binary {
	t.Helper()
	var bins []*binfmt.Binary
	for id := 1; id <= 22; id++ {
		full, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		twin, err := corpus.BuildStrippedImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildStrippedImage(%d): %v", id, err)
		}
		for _, img := range []*image.Image{full, twin} {
			for _, f := range img.Executables() {
				if !f.IsBinary() {
					continue
				}
				bin, err := binfmt.Unmarshal(f.Data)
				if err != nil {
					t.Fatalf("Unmarshal(%s): %v", f.Path, err)
				}
				if strip.Needed(bin) {
					strip.Recover(bin, strip.Hints{})
				}
				bins = append(bins, bin)
			}
		}
	}
	sort.SliceStable(bins, func(i, j int) bool { return len(bins[i].Text) < len(bins[j].Text) })
	order := make([]*binfmt.Binary, 0, len(bins))
	for lo, hi := 0, len(bins)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, bins[hi])
		if lo < hi {
			order = append(order, bins[lo])
		}
	}
	return order
}

// buildAll requests every artifact of every function of fx's program.
func buildAll(fx *facts.Program) {
	for _, fn := range fx.Prog().Funcs {
		h := fx.Func(fn)
		h.CFG()
		h.DefUse()
		h.Consts()
		h.Idom()
	}
	fx.CallGraph()
}

// site names a callsite by function position and op, so that the answers
// of two lifts of one binary compare.
type site struct{ fn, op int }

type edge struct {
	caller, callee int
	at             site
}

func siteOf(cs pcode.CallSite) site { return site{cs.Fn.Index(), cs.OpIdx} }

func sitesOf(css []pcode.CallSite) []site {
	out := []site{}
	for _, cs := range css {
		out = append(out, siteOf(cs))
	}
	return out
}

func edgesOf(es []callgraph.Edge) []edge {
	out := []edge{}
	for _, e := range es {
		out = append(out, edge{e.Caller.Index(), e.Callee.Index(), siteOf(e.Site)})
	}
	return out
}

type block struct {
	id, start, end int
	succs, preds   []int
}

// blocksOf copies a graph's blocks, an empty edge list as nil or not.
func blocksOf(g *cfg.Graph) []block {
	out := []block{}
	for _, b := range g.Blocks {
		out = append(out, block{b.ID, b.Start, b.End, ints(b.Succs), ints(b.Preds)})
	}
	return out
}

func ints(s []int) []int { return append([]int{}, s...) }

// compareStores requires a recycled store to answer every query of a
// fresh one over the same binary: per function its blocks, edges, reverse
// post-order and dominators, reaching definitions (in each of their three
// forms) and parameter liveness of every operand at every op, the constant of every op input, and over
// the call graph the callers, callees, address-taken sites and import
// callsites of every function and import, and the path between every pair
// of functions.
func compareStores(t *testing.T, name string, got, want *facts.Program) {
	t.Helper()
	gp, wp := got.Prog(), want.Prog()
	prefix := []int{-1}
	if len(gp.Funcs) != len(wp.Funcs) {
		t.Fatalf("%s: %d functions, want %d", name, len(gp.Funcs), len(wp.Funcs))
	}
	for i, wf := range wp.Funcs {
		gf := gp.Funcs[i]
		where := name + "/" + wf.Name()
		gh, wh := got.Func(gf), want.Func(wf)
		gg, wg := gh.CFG(), wh.CFG()
		if !reflect.DeepEqual(blocksOf(gg), blocksOf(wg)) || !reflect.DeepEqual(ints(gg.ReversePostOrder()), ints(wg.ReversePostOrder())) {
			t.Fatalf("%s: CFG differs: blocks %v rpo %v, want %v rpo %v",
				where, blocksOf(gg), gg.ReversePostOrder(), blocksOf(wg), wg.ReversePostOrder())
		}
		if !reflect.DeepEqual(ints(gh.Idom()), ints(wh.Idom())) {
			t.Fatalf("%s: Idom = %v, want %v", where, gh.Idom(), wh.Idom())
		}
		gdu, wdu := gh.DefUse(), wh.DefUse()
		gcp, wcp := gh.Consts(), wh.Consts()
		for j := range wf.Ops {
			op := &wf.Ops[j]
			for k, v := range append([]pcode.Varnode{op.Output}, op.Inputs...) {
				w := wdu.ReachingDefs(j, v)
				if g := gdu.ReachingDefs(j, v); !reflect.DeepEqual(g, w) {
					t.Fatalf("%s: ReachingDefs(%d, %v) = %v, want %v", where, j, v, g, w)
				}
				if g := gdu.AppendReachingDefs(prefix[:1:1], j, v); g[0] != -1 || !reflect.DeepEqual(g[1:], append([]int{}, w...)) {
					t.Fatalf("%s: AppendReachingDefs(%d, %v) = %v, want %v after the prefix", where, j, v, g, w)
				}
				if g := gdu.HasReachingDef(j, v); g != (len(w) > 0) {
					t.Fatalf("%s: HasReachingDef(%d, %v) = %t, want %t", where, j, v, g, len(w) > 0)
				}
				if g, w := gdu.IsParamLive(j, v), wdu.IsParamLive(j, v); g != w {
					t.Fatalf("%s: IsParamLive(%d, %v) = %t, want %t", where, j, v, g, w)
				}
				if k == 0 {
					continue // ValueAt is asked of op inputs
				}
				gv, gok := gcp.ValueAt(j, v)
				wv, wok := wcp.ValueAt(j, v)
				if gv != wv || gok != wok {
					t.Fatalf("%s: ValueAt(%d, %v) = %#x,%t, want %#x,%t", where, j, v, gv, gok, wv, wok)
				}
			}
		}
	}

	gcg, wcg := got.CallGraph(), want.CallGraph()
	if !reflect.DeepEqual(edgesOf(gcg.Edges()), edgesOf(wcg.Edges())) {
		t.Fatalf("%s: call graph edges differ", name)
	}
	for i, wf := range wp.Funcs {
		gf := gp.Funcs[i]
		where := name + "/" + wf.Name()
		if g, w := edgesOf(gcg.Callers(gf)), edgesOf(wcg.Callers(wf)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Callers = %v, want %v", where, g, w)
		}
		if g, w := edgesOf(gcg.Callees(gf)), edgesOf(wcg.Callees(wf)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: Callees = %v, want %v", where, g, w)
		}
		if g, w := sitesOf(gcg.AddressTaken(gf)), sitesOf(wcg.AddressTaken(wf)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: AddressTaken = %v, want %v", where, g, w)
		}
		for j, wt := range wp.Funcs {
			gpath, wpath := gcg.Path(gf, gp.Funcs[j]), wcg.Path(wf, wt)
			if len(gpath) != len(wpath) {
				t.Fatalf("%s: Path to %s has %d functions, want %d", where, wt.Name(), len(gpath), len(wpath))
			}
			for k := range wpath {
				if gpath[k].Index() != wpath[k].Index() {
					t.Fatalf("%s: Path to %s differs at %d", where, wt.Name(), k)
				}
			}
		}
	}
	if g, w := gcg.ImportNames(), wcg.ImportNames(); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: ImportNames = %v, want %v", name, g, w)
	}
	for _, imp := range wp.Bin.Imports {
		if g, w := sitesOf(gcg.ImportCallSites(imp.Name)), sitesOf(wcg.ImportCallSites(imp.Name)); !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: ImportCallSites(%q) = %v, want %v", name, imp.Name, g, w)
		}
	}
}

// TestRecycledFactsMatchFresh lifts every crawl-set binary into one
// recycled set, twice over, so that in the second round each set has
// served every other program first; each time it builds every artifact of
// every function and requires each to equal what a fresh store over a
// fresh lift builds.
func TestRecycledFactsMatchFresh(t *testing.T) {
	bins := crawlBinaries(t)
	for round := 0; round < 2; round++ {
		for _, bin := range bins {
			prog, err := pcode.LiftProgram(bin)
			if err != nil {
				t.Fatalf("LiftProgram(%s): %v", bin.Name, err)
			}
			got, err := facts.Lift(bin)
			if err != nil {
				t.Fatalf("Lift(%s): %v", bin.Name, err)
			}
			buildAll(got)
			compareStores(t, bin.Name, got, facts.New(prog))
			got.Release()
		}
	}
}

// largest returns the crawl-set binary with the most functions.
func largest(bins []*binfmt.Binary) *binfmt.Binary {
	best := bins[0]
	for _, b := range bins {
		if len(b.Funcs) > len(best.Funcs) {
			best = b
		}
	}
	return best
}

// TestReleasedSetPinsNoProgram: with scrubbing off, a release clears the
// set's pcode storage like every other slab of the set, so an idle set
// holds no op, input or call target of the binary it lifted, and no
// function symbol or binary.
func TestReleasedSetPinsNoProgram(t *testing.T) {
	defer facts.ScrubReleased(facts.ScrubReleased(false))
	bin := largest(crawlBinaries(t))
	fx, err := facts.Lift(bin)
	if err != nil {
		t.Fatal(err)
	}
	buildAll(fx)
	prog := fx.Prog()
	fns := append([]*pcode.Function(nil), prog.Funcs...)
	var ops [][]pcode.Op
	var ins [][]pcode.Varnode
	var calls []*pcode.CallTarget
	for _, fn := range fns {
		ops = append(ops, fn.Ops)
		for i := range fn.Ops {
			if op := &fn.Ops[i]; op.Call != nil {
				calls = append(calls, op.Call)
			}
			ins = append(ins, fn.Ops[i].Inputs)
		}
	}
	fx.Release()

	if prog.Bin != nil {
		t.Error("a released program still names its binary")
	}
	kept := map[string]int{}
	for _, fn := range fns {
		if fn.Sym != (binfmt.FuncSym{}) || fn.Ops != nil {
			kept["function shell"]++
		}
	}
	for _, list := range ops {
		for i := range list {
			if !reflect.ValueOf(list[i]).IsZero() {
				kept["op"]++
			}
		}
	}
	for _, list := range ins {
		for _, v := range list {
			if v != (pcode.Varnode{}) {
				kept["input"]++
			}
		}
	}
	for _, c := range calls {
		if *c != (pcode.CallTarget{}) {
			kept["call target"]++
		}
	}
	if len(kept) > 0 {
		t.Errorf("a released set still holds of %s (%d functions, %d call targets): %v", bin.Name, len(fns), len(calls), kept)
	}
}

// TestRecycledStoreConcurrentArtifacts has eight goroutines request every
// artifact of a recycled store at once, each walking the functions from a
// different start, so that they carve from the store's slabs concurrently;
// every answer must equal a fresh store's. The race leg runs it with
// -count=10.
func TestRecycledStoreConcurrentArtifacts(t *testing.T) {
	bins := crawlBinaries(t)
	big := largest(bins)
	for _, bin := range []*binfmt.Binary{big, bins[len(bins)-1], big} {
		fx, err := facts.Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		buildAll(fx)
		fx.Release()
	}
	fx, err := facts.Lift(big)
	if err != nil {
		t.Fatal(err)
	}
	funcs := fx.Prog().Funcs
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := range funcs {
				fn := funcs[(k+w*len(funcs)/8)%len(funcs)]
				h := fx.Func(fn)
				switch (k + w) % 4 {
				case 0:
					h.Consts().ValueAt(len(fn.Ops)/2, pcode.Register(1))
				case 1:
					h.DefUse().ReachingDefs(len(fn.Ops)/2, pcode.Register(1))
				case 2:
					h.Idom()
				default:
					fx.CallGraph().Path(fn, funcs[0])
				}
				h.CFG()
				h.DefUse()
				h.Consts()
			}
		}(w)
	}
	wg.Wait()
	prog, err := pcode.LiftProgram(big)
	if err != nil {
		t.Fatal(err)
	}
	compareStores(t, big.Name, fx, facts.New(prog))
}
