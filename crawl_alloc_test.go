// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"runtime"
	"runtime/metrics"
	"testing"

	"firmres/internal/parallel"
)

// crawlAllocBudget is the committed ceiling on heap bytes allocated per
// image by a cold -j 1 sweep of the crawl set. The measured cost is about
// 0.32 MB, each executable's lifted program and facts artifacts recycled
// together through the pipeline's pool and each tree's paths enumerated
// once; the headroom absorbs runtime-version drift, not regressions —
// blowing the budget means a cold-path structure (a per-call map, a string
// per op, a solution the facts store already holds, a set nobody releases,
// facts built in fresh storage, a path list walked twice) is being rebuilt
// per call.
const crawlAllocBudget = 0.35e6

// crawlSet packs the crawl workload's images: the 22 corpus devices and
// their 22 stripped twins.
func crawlSet(t testing.TB) [][]byte {
	t.Helper()
	var imgs [][]byte
	for _, g := range goldenCrawlSet(t) {
		imgs = append(imgs, g.data)
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
// lint on, no cache, one worker, measured over one AnalyzeImages pass
// after a warm-up pass has filled the pools.
func TestCrawlAllocBudget(t *testing.T) {
	imgs := crawlSet(t)
	opts := []Option{WithLint(), WithWorkers(1)}
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

// liveHeap returns the bytes of live heap objects. Two collections flush
// the sync.Pool victim caches, so pooled scratch does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestAnalyzerRetentionBound runs the crawl set through one Analyzer on
// two workers and requires the live heap to stay within 1 MB of its
// starting level while the Analyzer stays reachable: its pool keeps the
// storage of the programs that were live at once, and nothing else of
// the analyses survives them.
func TestAnalyzerRetentionBound(t *testing.T) {
	const budget = 1 << 20
	imgs := crawlSet(t)
	cfg := newConfig([]Option{WithLint(), WithWorkers(2)})
	a, err := cfg.analyzer(len(imgs))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	before := liveHeap()
	parallel.ForEach(ctx, 2, len(imgs), func(i int) {
		analyzeBatchImage(ctx, a, "", imgs[i])
	})
	after := liveHeap()
	runtime.KeepAlive(a)
	runtime.KeepAlive(imgs)

	grown := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d images (budget %d)", grown, len(imgs), budget)
	if grown > budget {
		t.Errorf("live heap grew %d B after the crawl set, budget %d: the Analyzer keeps more than its pool", grown, budget)
	}
}
