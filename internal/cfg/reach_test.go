package cfg_test

import (
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/cfg"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/pcode"
	"firmres/internal/strip"
)

// crawlFunctions lifts every binary executable of the crawl set — the 22
// corpus images and their 22 stripped twins, the stripped ones recovered
// first — and returns all their functions.
func crawlFunctions(t *testing.T) []*pcode.Function {
	t.Helper()
	var fns []*pcode.Function
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
				prog, err := pcode.LiftProgram(bin)
				if err != nil {
					t.Fatalf("LiftProgram(%s): %v", f.Path, err)
				}
				fns = append(fns, prog.Funcs...)
			}
		}
	}
	return fns
}

// reached returns the blocks a breadth-first search from the entry reaches
// without passing through block cut (-1 cuts nothing).
func reached(g *cfg.Graph, cut int) []bool {
	seen := make([]bool, len(g.Blocks))
	if len(g.Blocks) == 0 || cut == 0 {
		return seen
	}
	seen[0] = true
	queue := []int{0}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range g.Blocks[cur].Succs {
			if !seen[s] && s != cut {
				seen[s] = true
				queue = append(queue, s)
			}
		}
	}
	return seen
}

// referenceIdom computes the immediate dominators from the definition: a
// dominates b when cutting a leaves b unreachable from the entry, and the
// immediate dominator of b is the strict dominator that every other strict
// dominator of b dominates.
func referenceIdom(g *cfg.Graph) []int {
	n := len(g.Blocks)
	reach := reached(g, -1)
	dom := make([][]bool, n) // dom[a][b]: a dominates b
	for a := range dom {
		dom[a] = make([]bool, n)
		if !reach[a] {
			continue
		}
		without := reached(g, a)
		for b := range dom[a] {
			dom[a][b] = reach[b] && (a == b || !without[b])
		}
	}
	idom := make([]int, n)
	for b := range idom {
		idom[b] = -1
		if !reach[b] {
			continue
		}
		if b == 0 {
			idom[b] = 0
			continue
		}
		for d := range dom {
			if d == b || !dom[d][b] {
				continue
			}
			closest := true
			for o := range dom {
				if o != b && o != d && dom[o][b] && !dom[o][d] {
					closest = false
					break
				}
			}
			if closest {
				idom[b] = d
			}
		}
	}
	return idom
}

// TestReachabilityMatchesReference: over every function of the crawl set,
// EntryReaches and Dominators, both answered from the per-graph table the
// build computes with the reverse post-order, equal a breadth-first
// reference, and the reverse post-order lists the reachable blocks first.
func TestReachabilityMatchesReference(t *testing.T) {
	fns := crawlFunctions(t)
	blocks := 0
	for _, fn := range fns {
		g := cfg.Build(fn)
		reach := reached(g, -1)
		for b := range g.Blocks {
			if got := g.EntryReaches(b); got != reach[b] {
				t.Fatalf("%s: EntryReaches(%d) = %t, BFS says %t", fn.Name(), b, got, reach[b])
			}
		}
		if g.EntryReaches(-1) || g.EntryReaches(len(g.Blocks)) {
			t.Fatalf("%s: EntryReaches holds outside the graph", fn.Name())
		}
		rpo := g.ReversePostOrder()
		for i, id := range rpo {
			if i > 0 && reach[id] && !reach[rpo[i-1]] {
				t.Fatalf("%s: reachable block %d follows an unreachable one in %v", fn.Name(), id, rpo)
			}
		}
		want := referenceIdom(g)
		got := g.Dominators()
		for b := range want {
			if got[b] != want[b] {
				t.Fatalf("%s: idom(%d) = %d, reference %d (idom %v, want %v)", fn.Name(), b, got[b], want[b], got, want)
			}
		}
		blocks += len(g.Blocks)
	}
	t.Logf("%d functions, %d blocks", len(fns), blocks)
}
