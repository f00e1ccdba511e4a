// Heap figures are only meaningful without race instrumentation, which
// perturbs escape analysis and allocation behavior.
//go:build !race

package core

import (
	"context"
	"runtime"
	"sort"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/parallel"
	"firmres/internal/taint"
)

// winner is a crawl-set image's device-cloud executable, sized by the
// nodes of its traced MFTs.
type winner struct {
	img   *image.Image
	bin   *binfmt.Binary
	nodes int
}

// crawlWinners pinpoints the device-cloud executable of every crawl-set
// image that has one, ordered so that each alternates between the one
// with the largest trees and the one with the smallest left.
func crawlWinners(t *testing.T) []winner {
	t.Helper()
	var ws []winner
	for _, img := range crawlImages(t) {
		cand, _, err := New(Options{Workers: 1}).pinpoint(context.Background(), nil, img, imageResolver(img))
		if err != nil {
			continue
		}
		w := winner{img: img, bin: cand.fx.Prog().Bin}
		for _, mr := range messagesOf(cand.fx, img, 1) {
			mr.MFT.Root.Walk(func(*taint.Node) { w.nodes++ })
		}
		cand.fx.Release()
		ws = append(ws, w)
	}
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].nodes < ws[j].nodes })
	order := make([]winner, 0, len(ws))
	for lo, hi := 0, len(ws)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, ws[hi])
		if lo < hi {
			order = append(order, ws[lo])
		}
	}
	return order
}

// setRetainsTrees serves ws in order from one set — lift, the pipeline's
// tree stages on one worker, release — and returns the live heap the set
// keeps once it is back on the process's free list. The list is emptied
// first, so the set starts cold; the sets taken to empty it stay live
// throughout.
func setRetainsTrees(t *testing.T, ws []winner) int64 {
	t.Helper()
	small := ws[len(ws)-1].bin
	var held []*facts.Program
	for i := 0; i < parallel.FreeListCap(); i++ {
		fx, err := facts.Lift(small)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fx)
	}
	before := int64(liveHeap())
	for _, w := range ws {
		fx, err := facts.Lift(w.bin)
		if err != nil {
			t.Fatal(err)
		}
		messagesOf(fx, w.img, 1)
		fx.Release()
	}
	retained := int64(liveHeap()) - before
	runtime.KeepAlive(ws)
	for _, fx := range held {
		fx.Release()
	}
	return retained
}

// TestSetRetentionMatchesLargestTrees: a set kept for the life of the
// process keeps about what the largest trees it built needed, not the sum
// over its slabs of the most each ever held. A set that served every
// crawl-set winner, alternately the one with the largest trees and the
// one with the smallest left, through every tree stage, must retain
// within 5% of a set that served only the winner with the largest trees.
func TestSetRetentionMatchesLargestTrees(t *testing.T) {
	ws := crawlWinners(t)
	one := setRetainsTrees(t, ws[:1])
	all := setRetainsTrees(t, ws)
	t.Logf("a set retains %d B after the winner with the largest trees (%d nodes) alone, %d B after all %d winners (%+.1f%%)",
		one, ws[0].nodes, all, len(ws), 100*float64(all-one)/float64(one))
	if float64(all) > 1.05*float64(one) {
		t.Errorf("a set that served all %d crawl-set winners retains %d B, more than 5%% above the %d B of one that served the winner with the largest trees alone",
			len(ws), all, one)
	}
}
