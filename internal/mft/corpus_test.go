package mft_test

import (
	"context"
	"hash/fnv"
	"strconv"
	"testing"

	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/image"
	"firmres/internal/mft"
)

// refPaths is the reference enumeration the kept path list must equal: a
// fresh recursive walk of the tree as it stands, each path hashed on its
// own over its nodes' Label strings.
func refPaths(tr *mft.Tree) []mft.Path {
	var out []mft.Path
	var cur []*mft.SNode
	var rec func(n *mft.SNode)
	rec = func(n *mft.SNode) {
		cur = append(cur, n)
		if len(n.Children) == 0 {
			if n.Leaf() {
				nodes := append([]*mft.SNode(nil), cur...)
				out = append(out, mft.Path{ID: len(out), Hash: refHash(nodes), Nodes: nodes})
			}
		} else {
			for _, c := range n.Children {
				rec(c)
			}
		}
		cur = cur[:len(cur)-1]
	}
	if tr.Root != nil {
		rec(tr.Root)
	}
	return out
}

func refHash(nodes []*mft.SNode) uint64 {
	h := fnv.New64a()
	for _, n := range nodes {
		h.Write([]byte(n.Orig.Label()))
		h.Write([]byte{0})
		h.Write([]byte(strconv.Itoa(n.Orig.OpIdx)))
		h.Write([]byte{1})
	}
	return h.Sum64()
}

func samePaths(t *testing.T, what string, got, want []mft.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Hash != w.Hash || len(g.Nodes) != len(w.Nodes) {
			t.Fatalf("%s: path %d = {ID %d, hash %#x, %d nodes}, want {ID %d, hash %#x, %d nodes}",
				what, i, g.ID, g.Hash, len(g.Nodes), w.ID, w.Hash, len(w.Nodes))
		}
		for j := range w.Nodes {
			if g.Nodes[j] != w.Nodes[j] {
				t.Fatalf("%s: path %d node %d differs", what, i, j)
			}
		}
	}
}

// crawlTrees simplifies every message tree the crawl set produces: the 22
// corpus devices and their 22 stripped twins, analyzed with lint as the
// crawl runs them.
func crawlTrees(t *testing.T) []*mft.Tree {
	t.Helper()
	pl := core.New(core.Options{Lint: true, Workers: 1})
	var trees []*mft.Tree
	for id := 1; id <= 22; id++ {
		for _, build := range []func(*corpus.DeviceSpec) (*image.Image, error){corpus.BuildImage, corpus.BuildStrippedImage} {
			built, err := build(corpus.Device(id))
			if err != nil {
				t.Fatalf("device %d: %v", id, err)
			}
			img, err := image.Unpack(built.Pack())
			if err != nil {
				t.Fatalf("device %d: %v", id, err)
			}
			res, err := pl.AnalyzeImageContext(context.Background(), img)
			if err != nil {
				continue // the script-only devices have no device-cloud executable
			}
			for _, m := range res.Messages {
				trees = append(trees, mft.Simplify(m.MFT))
			}
		}
	}
	return trees
}

// TestPathListMatchesReferenceOnCorpus pins the kept path list to a fresh
// enumeration over every tree of the crawl set: IDs, hashes and node
// sequences before inversion, after it, and after inverting back.
func TestPathListMatchesReferenceOnCorpus(t *testing.T) {
	trees := crawlTrees(t)
	if len(trees) == 0 {
		t.Fatal("the crawl set produced no trees")
	}
	total := 0
	for i, tr := range trees {
		first := tr.Paths()
		samePaths(t, "tree "+strconv.Itoa(i), first, refPaths(tr))
		total += len(first)
		first = append([]mft.Path(nil), first...) // Invert reorders the list in place

		tr.Invert()
		samePaths(t, "tree "+strconv.Itoa(i)+" inverted", tr.Paths(), refPaths(tr))

		tr.Invert()
		samePaths(t, "tree "+strconv.Itoa(i)+" inverted twice", tr.Paths(), first)
	}
	if total == 0 {
		t.Fatal("the crawl set's trees have no paths")
	}
	t.Logf("%d trees, %d paths", len(trees), total)
}
