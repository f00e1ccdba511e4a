package core

// Tests for the message trees a set keeps: every MFT, simplified tree,
// path list, slice list, slice-info list and message an analysis builds is
// carved from its winner's set, which the next analysis recycles.

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/mft"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/taint"
)

// crawlImages unpacks the crawl set: the 22 corpus devices and their 22
// stripped twins.
func crawlImages(t testing.TB) []*image.Image {
	t.Helper()
	var imgs []*image.Image
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
			unpacked, err := image.Unpack(img.Pack())
			if err != nil {
				t.Fatalf("Unpack(%d): %v", id, err)
			}
			imgs = append(imgs, unpacked)
		}
	}
	return imgs
}

// messagesOf runs the identify-fields, recover-semantics and
// concatenate-fields stages over the store fx, as the pipeline does.
func messagesOf(fx *facts.Program, img *image.Image, workers int) []MessageResult {
	ctx := context.Background()
	mfts, trees, sls := traceMessages(ctx, fx, workers, nil)
	infos := classifySlices(ctx, fx, &semantics.KeywordClassifier{}, mfts, sls, workers)
	resolver, _ := ResolverFromImageNotes(img)
	return buildMessages(ctx, fx, mfts, trees, sls, infos, resolver, nil, workers)
}

// freshMessages builds the messages of img's device-cloud executable in a
// fresh store over a fresh lift, nil for a script-only image.
func freshMessages(t testing.TB, img *image.Image, workers int) []MessageResult {
	t.Helper()
	cand, _, err := New(Options{Workers: workers}).pinpoint(context.Background(), nil, img, imageResolver(img))
	if err != nil {
		return nil
	}
	prog, err := pcode.LiftProgram(cand.fx.Prog().Bin)
	cand.fx.Release()
	if err != nil {
		t.Fatal(err)
	}
	return messagesOf(facts.New(prog), img, workers)
}

// renderMessages renders everything the pipeline builds per message into
// text that names functions by position, so the messages of two lifts of
// one binary compare: every MFT node with its fields and children, the
// simplified tree over it, the path list with IDs, hashes and nodes, the
// slices with their steps, the slice infos and the built message.
func renderMessages(msgs []MessageResult) string {
	var b strings.Builder
	fnOf := func(fn *pcode.Function) string {
		if fn == nil {
			return "-"
		}
		return fmt.Sprintf("%d:%s", fn.Index(), fn.Name())
	}
	for i, mr := range msgs {
		m := mr.MFT
		fmt.Fprintf(&b, "message %d: %s %q site %s@%d\n", i, m.Deliver, m.Context, fnOf(m.Site.Fn), m.Site.OpIdx)
		ids := map[*taint.Node]int{}
		m.Root.Walk(func(n *taint.Node) {
			ids[n] = len(ids)
			fmt.Fprintf(&b, "  node %d %s %s@%d callee=%q arg=%q fmt=%q str=%q const=%#x key=%q kids=%d\n",
				ids[n], n.Kind, fnOf(n.Fn), n.OpIdx, n.Callee, n.ArgLabel, n.Format, n.StrVal, n.ConstVal, n.Key, len(n.Children))
		})
		snodes := map[*mft.SNode]int{}
		fmt.Fprintf(&b, "  tree inverted=%t\n", mr.Tree.Inverted)
		mr.Tree.Root.Walk(func(n *mft.SNode) {
			snodes[n] = len(snodes)
			fmt.Fprintf(&b, "  snode %d orig=%d kids=%d\n", snodes[n], ids[n.Orig], len(n.Children))
		})
		for _, p := range mr.Tree.Paths() {
			fmt.Fprintf(&b, "  path %d %#x:", p.ID, p.Hash)
			for _, n := range p.Nodes {
				fmt.Fprintf(&b, " %d", snodes[n])
			}
			b.WriteByte('\n')
		}
		for _, s := range mr.Slices {
			fmt.Fprintf(&b, "  slice path=%d %#x leaf=%d key=%q mft=%t:", s.PathID, s.PathHash, snodes[s.Leaf], s.KeyHint, s.MFT == m)
			for _, st := range s.Steps {
				fmt.Fprintf(&b, " %s@%d", fnOf(st.Fn), st.OpIdx)
			}
			b.WriteByte('\n')
		}
		for _, in := range mr.Infos {
			fmt.Fprintf(&b, "  info path=%d %s %.3f\n", in.Slice.PathID, in.Label, in.Confidence)
		}
		msg := *mr.Message
		msg.Fields = nil
		fmt.Fprintf(&b, "  message %+v\n", msg)
		for _, f := range mr.Message.Fields {
			fmt.Fprintf(&b, "  field %+v\n", f)
		}
	}
	return b.String()
}

// TestRecycledTreesMatchFresh builds the messages of every crawl-set
// program in a set from the process's free list, twice over, so that in
// the second round the set has served every other program first, at one
// and at two workers; every MFT, simplified tree, path list, slice, slice
// info and message must equal what a fresh store over a fresh lift builds.
func TestRecycledTreesMatchFresh(t *testing.T) {
	imgs := crawlImages(t)
	ctx := context.Background()
	for _, workers := range []int{1, 2} {
		p := New(Options{Workers: workers})
		for round := 0; round < 2; round++ {
			for _, img := range imgs {
				want := renderMessages(freshMessages(t, img, workers))
				cand, _, err := p.pinpoint(ctx, nil, img, imageResolver(img))
				if err != nil {
					if want != "" {
						t.Fatalf("%s: pinpoint failed (%v) where a fresh lift found messages", img.Device, err)
					}
					continue
				}
				got := renderMessages(messagesOf(cand.fx, img, workers))
				cand.fx.Release()
				if got != want {
					t.Fatalf("%s, %d workers, round %d: recycled trees differ from fresh ones:\n%s",
						img.Device, workers, round, firstDiff(got, want))
				}
			}
		}
	}
}

// firstDiff shows the first line at which got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(g), len(w))
}

// TestRecycledTreesConcurrent has two pipelines on two workers each walk
// the crawl set in opposite orders at once, with every released set
// scrubbed, so that sites are traced and trees built concurrently in sets
// the other pipeline's analyses released. Every analysis's messages must
// equal a fresh build's. The race leg runs it with -count=10.
func TestRecycledTreesConcurrent(t *testing.T) {
	imgs := crawlImages(t)
	want := make([]string, len(imgs))
	for i, img := range imgs {
		want[i] = renderMessages(freshMessages(t, img, 1))
	}
	defer facts.ScrubReleased(facts.ScrubReleased(true))
	var wg sync.WaitGroup
	for _, reverse := range []bool{false, true} {
		wg.Add(1)
		go func(reverse bool) {
			defer wg.Done()
			p := New(Options{Lint: true, Workers: 2})
			for k := range imgs {
				i := k
				if reverse {
					i = len(imgs) - 1 - k
				}
				res, err := p.AnalyzeImage(imgs[i])
				if err == nil {
					if got := renderMessages(res.Messages); got != want[i] {
						t.Errorf("%s: trees differ from a fresh build:\n%s", imgs[i].Device, firstDiff(got, want[i]))
					}
				}
				res.Release()
			}
		}(reverse)
	}
	wg.Wait()
}
