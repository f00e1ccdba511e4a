// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"runtime/metrics"
	"testing"

	"firmres/internal/corpus"
)

// crawlAllocBudget is the committed ceiling on heap bytes allocated per
// image by a cold -j 1 sweep of the crawl set. The measured cost is about
// 0.62 MB; the headroom absorbs runtime-version drift, not regressions —
// blowing the budget means a cold-path structure (a per-call map, a
// string per op, a solution the facts store already holds) is being
// rebuilt per call.
const crawlAllocBudget = 0.85e6

// crawlSet packs the crawl workload's images: the 22 corpus devices and
// their 22 stripped twins.
func crawlSet(t testing.TB) [][]byte {
	t.Helper()
	var imgs [][]byte
	for id := 1; id <= 22; id++ {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		twin, err := corpus.BuildStrippedImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildStrippedImage(%d): %v", id, err)
		}
		imgs = append(imgs, img.Pack(), twin.Pack())
	}
	return imgs
}

// heapAllocBytes reads the cumulative bytes allocated to the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// TestCrawlAllocBudget pins the allocation cost of the cold crawl sweep:
// lint and stripped mode on, no cache, one worker, measured over one
// AnalyzeImages pass after a warm-up pass has filled the pools.
func TestCrawlAllocBudget(t *testing.T) {
	imgs := crawlSet(t)
	opts := []Option{WithLint(), WithStrippedMode(), WithWorkers(1)}
	if _, err := AnalyzeImages(context.Background(), imgs, opts...); err != nil {
		t.Fatalf("warm-up AnalyzeImages: %v", err)
	}
	before := heapAllocBytes()
	br, err := AnalyzeImages(context.Background(), imgs, opts...)
	after := heapAllocBytes()
	if err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	if br.Summary.Images != len(imgs) {
		t.Fatalf("analyzed %d images, want %d", br.Summary.Images, len(imgs))
	}
	perImage := float64(after-before) / float64(len(imgs))
	t.Logf("crawl: %.0f B/image over %d images (budget %.0f)", perImage, len(imgs), crawlAllocBudget)
	if perImage > crawlAllocBudget {
		t.Errorf("cold crawl sweep allocates %.0f B/image, budget %.0f", perImage, crawlAllocBudget)
	}
}
