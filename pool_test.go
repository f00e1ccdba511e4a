package firmres

// Tests for set recycling: every fresh analysis lifts through the
// process's free list of sets and hands the winning set back once its
// report is built, so nothing a report holds may alias a set's storage.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sync"
	"testing"

	"firmres/internal/core"
	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/image"
)

// goldenImage is one packed image of the crawl set and its golden file.
type goldenImage struct {
	id   int
	data []byte
	path string
	want []byte
}

// goldenCrawlSet packs the crawl set — the 22 corpus devices and their 22
// stripped twins — with their golden files. One Analyzer with lint
// reproduces both golden suites: recovery runs only on the twins.
func goldenCrawlSet(t testing.TB) []goldenImage {
	t.Helper()
	var set []goldenImage
	for id := 1; id <= 22; id++ {
		full, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		twin, err := corpus.BuildStrippedImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildStrippedImage(%d): %v", id, err)
		}
		set = append(set,
			goldenImage{id: id, data: full.Pack(), path: goldenPath(id)},
			goldenImage{id: id, data: twin.Pack(), path: strippedGoldenPath(id)})
	}
	for i := range set {
		want, err := os.ReadFile(set[i].path)
		if err != nil {
			t.Fatalf("missing golden file: %v", err)
		}
		set[i].want = want
	}
	return set
}

// checkGolden renders one analysis outcome as its golden file does and
// compares the two. Safe to call from any goroutine.
func checkGolden(t testing.TB, g goldenImage, rep *Report, err error) {
	t.Helper()
	rec := &goldenRecord{Device: g.id}
	switch {
	case err == nil:
		rec.Outcome, rec.Report = "report", rep
	case errors.Is(err, ErrNoDeviceCloudExecutable):
		rec.Outcome = "no-device-cloud-executable"
	default:
		t.Errorf("%s: %v", g.path, err)
		return
	}
	got, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		t.Errorf("%s: %v", g.path, err)
		return
	}
	if got = append(got, '\n'); !bytes.Equal(got, g.want) {
		t.Errorf("report diverged from %s:\n%s", g.path, clip(string(got)))
	}
}

// TestGoldenReportsScrubbedPool runs the crawl set through one Analyzer
// with every released set overwritten with garbage — its program, its
// facts, the semantics stage's enrichment and its message trees — so a
// report built from a set after its release diverges from its golden. The
// first image's report is kept and marshalled again once the 43 later
// analyses have reused its set's storage. First, a released analysis's
// trees must read as garbage, so the scrub reaches them.
func TestGoldenReportsScrubbedPool(t *testing.T) {
	set := goldenCrawlSet(t)
	a, err := NewAnalyzer(WithLint(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	defer facts.ScrubReleased(facts.ScrubReleased(true))
	checkTreesScrubbed(t, set[0].data)
	var kept *Report
	var keptJS []byte
	for i, g := range set {
		rep, js, _, err := a.Analyze(context.Background(), nil, g.data, nil)
		checkGolden(t, g, rep, err)
		if i == 0 {
			kept, keptJS = rep, js
		}
	}
	again, err := json.Marshal(kept)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, keptJS) {
		t.Errorf("a kept report changed after later analyses reused its storage:\nbefore: %s\nafter:  %s",
			clip(string(keptJS)), clip(string(again)))
	}
}

// checkTreesScrubbed analyzes img, keeps a message of the Result, releases
// it with scrubbing on and requires every piece of the message's storage
// the set held to read as garbage: the result list, the MFT and its root
// node, the simplified tree, its root node and path list, the slice list
// and its steps, the slice infos, the message and its field list.
func checkTreesScrubbed(t *testing.T, img []byte) {
	t.Helper()
	unpacked, err := image.Unpack(img)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.New(core.Options{Lint: true, Workers: 2}).AnalyzeImage(unpacked)
	if err != nil || len(res.Messages) == 0 || len(res.Messages[0].Slices) == 0 ||
		len(res.Messages[0].Slices[0].Steps) == 0 || len(res.Messages[0].Message.Fields) == 0 {
		t.Fatalf("want a message with slices, steps and fields: %v", err)
	}
	msgs, mr := res.Messages, res.Messages[0]
	root, sroot, paths := mr.MFT.Root, mr.Tree.Root, mr.Tree.Paths()
	steps, fields := mr.Slices[0].Steps, mr.Message.Fields
	res.Release()
	for what, scrubbed := range map[string]bool{
		"result list":   msgs[0].MFT == nil && msgs[0].Message != nil && msgs[0].Message.Deliver == "scrubbed",
		"MFT":           mr.MFT.Deliver == "scrubbed",
		"MFT node":      root.StrVal == "scrubbed" && root.Children == nil,
		"tree":          mr.Tree.Root != nil && mr.Tree.Root.Orig.StrVal == "scrubbed",
		"tree node":     sroot.Orig != nil && sroot.Orig.StrVal == "scrubbed" && sroot.Children == nil,
		"path list":     paths[0].ID == -1,
		"slice list":    mr.Slices[0].KeyHint == "scrubbed",
		"steps":         steps[0].OpIdx == -1,
		"slice infos":   mr.Infos[0].Label == "scrubbed",
		"message":       mr.Message.Deliver == "scrubbed",
		"message field": fields[0].Value == "scrubbed",
	} {
		if !scrubbed {
			t.Errorf("a scrubbed release left the %s of a released analysis intact", what)
		}
	}
}

// TestAnalyzerSharedUnderLoad has two goroutines walk the crawl set in
// opposite orders through one Analyzer, so their analyses release sets
// to and lift sets from the free list at once. Every report must
// equal its golden; the race leg runs it with -count=10.
func TestAnalyzerSharedUnderLoad(t *testing.T) {
	set := goldenCrawlSet(t)
	a, err := NewAnalyzer(WithLint(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, reverse := range []bool{false, true} {
		wg.Add(1)
		go func(reverse bool) {
			defer wg.Done()
			for k := range set {
				g := set[k]
				if reverse {
					g = set[len(set)-1-k]
				}
				rep, _, _, err := a.Analyze(context.Background(), nil, g.data, nil)
				checkGolden(t, g, rep, err)
			}
		}(reverse)
	}
	wg.Wait()
}

// TestFreeListSharedAcrossAnalyzers has two Analyzers, on one and on two
// workers, and a one-shot AnalyzeImages call on two workers walk the crawl
// set at once, so that analyses of three configurations take sets from
// and release sets to the process's one free list concurrently, with every
// released set scrubbed. Every report must equal its golden; the race leg
// runs it with -count=10.
func TestFreeListSharedAcrossAnalyzers(t *testing.T) {
	defer facts.ScrubReleased(facts.ScrubReleased(true))
	set := goldenCrawlSet(t)
	var wg sync.WaitGroup
	for i, workers := range []int{1, 2} {
		a, err := NewAnalyzer(WithLint(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(reverse bool) {
			defer wg.Done()
			for k := range set {
				g := set[k]
				if reverse {
					g = set[len(set)-1-k]
				}
				rep, _, _, err := a.Analyze(context.Background(), nil, g.data, nil)
				checkGolden(t, g, rep, err)
			}
		}(i == 1)
	}
	imgs := make([][]byte, len(set))
	for i, g := range set {
		imgs[i] = g.data
	}
	br, err := AnalyzeImages(context.Background(), imgs, WithLint(), WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range br.Images {
		checkGolden(t, set[i], ir.Report, ir.Err)
	}
	wg.Wait()
}
