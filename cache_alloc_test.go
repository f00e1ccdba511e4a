// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"testing"
)

// cacheHitAllocBudget is the committed ceiling on heap bytes allocated per
// warm cache hit of a one-worker batch: the key, a verified read into a
// pooled buffer, and the report's decode, which is most of it. The
// measured cost is 21.7-23.6 KB with the one-pass decoder; decoding with
// encoding/json cost about 44 KB, and reading each entry into a fresh
// buffer as well about 63 KB.
const cacheHitAllocBudget = 0.03e6

// TestCacheHitAllocBudget pins the allocation cost of a warm re-scan:
// devices 1-20 (the ones with reports) through AnalyzeImages with lint,
// the cache and one worker. The first warm-up pass fills the cache and
// the second the pools; ten passes are then measured, every image a hit.
func TestCacheHitAllocBudget(t *testing.T) {
	imgs := make([][]byte, 20)
	for i := range imgs {
		imgs[i] = packedDevice(t, i+1)
	}
	opts := []Option{WithLint(), WithWorkers(1), WithCache(t.TempDir())}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		if _, err := AnalyzeImages(ctx, imgs, opts...); err != nil {
			t.Fatalf("warm-up AnalyzeImages: %v", err)
		}
	}
	const passes = 10
	before := heapAllocBytes()
	for i := 0; i < passes; i++ {
		br, err := AnalyzeImages(ctx, imgs, opts...)
		if err != nil {
			t.Fatalf("AnalyzeImages: %v", err)
		}
		if br.Summary.Cache.Hits != int64(len(imgs)) {
			t.Fatalf("pass %d stats = %+v, want every image a hit", i, *br.Summary.Cache)
		}
	}
	perImage := float64(heapAllocBytes()-before) / float64(passes*len(imgs))
	t.Logf("cache hits: %.0f B/image over %d passes (budget %.0f)", perImage, passes, cacheHitAllocBudget)
	if perImage > cacheHitAllocBudget {
		t.Errorf("warm cache hits allocate %.0f B/image, budget %.0f", perImage, cacheHitAllocBudget)
	}
}
