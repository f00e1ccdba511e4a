// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"errors"
	"runtime"
	"runtime/metrics"
	"sort"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/parallel"
)

// crawlAllocBudget is the committed ceiling on heap bytes allocated per
// image by a cold -j 1 sweep of the crawl set. The measured cost is about
// 96 KB, each executable's lifted program and facts artifacts recycled
// together through the process's free list of sets, each tree's paths
// enumerated once, each analysis's message trees, slices and fields
// carved from its set, symbol-free recovery carving its observations from
// one array each, and format and origin queries copying nothing; the
// headroom absorbs runtime-version drift, not regressions — blowing the
// budget means a cold-path structure (a per-call map, a string per op, a
// solution the facts store already holds, a set nobody releases, facts or
// trees built in fresh storage, a path list walked twice, a format split
// per path) is being rebuilt per call.
const crawlAllocBudget = 0.12e6

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
// after a warm-up pass has filled the free list of sets.
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

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// emptyFreeList takes every set the process's free list holds, lifting
// the first binary of img into each, and drops them, so that the list is
// empty and the sets it held are garbage.
func emptyFreeList(t testing.TB, img []byte) {
	t.Helper()
	takeSets(t, firstBinary(t, img))
}

// firstBinary unmarshals the first binary executable of img.
func firstBinary(t testing.TB, img []byte) *binfmt.Binary {
	t.Helper()
	unpacked, err := image.Unpack(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range unpacked.Executables() {
		if f.IsBinary() {
			bin, err := binfmt.Unmarshal(f.Data)
			if err != nil {
				t.Fatal(err)
			}
			return bin
		}
	}
	t.Fatal("image has no binary executable")
	return nil
}

// takeSets takes as many sets from the process's free list as it keeps,
// lifting bin into each; what the list lacks is made new.
func takeSets(t testing.TB, bin *binfmt.Binary) []*facts.Program {
	t.Helper()
	sets := make([]*facts.Program, parallel.FreeListCap())
	for i := range sets {
		fx, err := facts.Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		sets[i] = fx
	}
	return sets
}

// sameSets reports whether got and want hold the same sets, in any order.
func sameSets(got, want []*facts.Program) bool {
	left := make(map[*facts.Program]bool, len(want))
	for _, s := range want {
		left[s] = true
	}
	for _, s := range got {
		if !left[s] {
			return false
		}
		delete(left, s)
	}
	return len(left) == 0
}

// TestAnalyzerRetentionBound runs the crawl set through one Analyzer on
// two workers and requires the live heap, once the process's free list of
// sets is emptied, to stay within 64 KB of its level before the run while
// the Analyzer stays reachable: the free list keeps the storage of at
// most parallel.FreeListCap sets, and nothing else of the analyses
// survives them, in the Analyzer or anywhere else. A warm-up pass first
// builds what the process builds once (the extern signature index, the
// sets' storage).
func TestAnalyzerRetentionBound(t *testing.T) {
	const budget = 64 << 10
	imgs := crawlSet(t)
	ctx := context.Background()
	if _, err := AnalyzeImages(ctx, imgs, WithLint(), WithWorkers(2)); err != nil {
		t.Fatal(err)
	}
	cfg := newConfig([]Option{WithLint(), WithWorkers(2)})
	a, err := cfg.analyzer(len(imgs))
	if err != nil {
		t.Fatal(err)
	}
	emptyFreeList(t, imgs[0])
	before := liveHeap()
	parallel.ForEach(ctx, 2, len(imgs), func(i int) {
		analyzeBatchImage(ctx, a, "", imgs[i])
	})
	kept := liveHeap()
	emptyFreeList(t, imgs[0])
	after := liveHeap()
	runtime.KeepAlive(a)
	runtime.KeepAlive(imgs)

	grown := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d images beyond the free list, which kept %d B (budget %d)",
		grown, len(imgs), int64(kept)-int64(after), budget)
	if grown > budget {
		t.Errorf("live heap grew %d B after the crawl set beyond the free list of sets, budget %d", grown, budget)
	}
}

// TestConcurrentAnalysesStayWarm: the free list keeps what the process's
// workers hold at once, so analyses two at a time start as warm as one at
// a time. An analysis holds the set of its device-cloud candidate and the
// one it lifts the next executable into, and no crawl image has more than
// one candidate, so two image workers hold at most four sets: with
// GOMAXPROCS pinned at 2, the list's cap on every host. The crawl set with
// lint through one Analyzer must then drop no set of the list over ten
// passes at two image workers, and allocate, per image, within 5% at two
// image workers of what it allocates at one, each figure the median of
// five passes, the two shapes alternating. A list that keeps only what
// one analysis holds drops a set whenever two analyses hold four, and
// each dropped set is regrown.
//
// The passes measure the steady state. A set grows to the largest program
// it serves, and two workers draw on every set of the list in an order
// nothing fixes, so the warm-up makes each set serve the whole crawl set
// once from the top of the list, where one worker lifts every candidate
// and every executable before one, and once from under it, where the
// executables after the candidate go; five passes at two workers then
// warm what two analyses hold beside their sets.
func TestConcurrentAnalysesStayWarm(t *testing.T) {
	imgs := crawlSet(t)
	emptyFreeList(t, imgs[0]) // at the process's own cap: nothing stays under the sets below
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	a, err := NewAnalyzer(WithLint(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const passes = 5
	pass := func(workers int) float64 {
		before := totalAlloc()
		parallel.ForEach(ctx, workers, len(imgs), func(i int) {
			if r := analyzeBatchImage(ctx, a, "", imgs[i]); r.Err != nil && !errors.Is(r.Err, ErrNoDeviceCloudExecutable) {
				t.Error(r.Err)
			}
		})
		return float64(totalAlloc()-before) / float64(len(imgs))
	}
	bin := firstBinary(t, imgs[0])
	sets := takeSets(t, bin)
	for r := range sets {
		for i := len(sets) - 1; i >= 0; i-- { // sets[r] goes back last, on top
			sets[(r+i)%len(sets)].Release()
		}
		pass(1)
		if !sameSets(takeSets(t, bin), sets) {
			t.Fatal("one image worker made the free list drop a set")
		}
	}
	for _, s := range sets {
		s.Release()
	}
	for range passes {
		pass(2)
	}
	var one, two []float64
	for i := 0; i < passes; i++ {
		one = append(one, pass(1))
		two = append(two, pass(2))
	}
	kept := takeSets(t, bin)
	for _, s := range kept {
		s.Release()
	}
	if !sameSets(kept, sets) {
		t.Error("two image workers made the free list drop a set")
	}
	o, w := medianOf(one), medianOf(two)
	t.Logf("per image: %.0f B at one image worker, %.0f B at two (%+.1f%%)", o, w, 100*(w-o)/o)
	if w > 1.05*o {
		t.Errorf("two image workers allocate %.0f B per image, %.1f%% above one worker's %.0f B: the free list drops sets that concurrent analyses release",
			w, 100*(w-o)/o, o)
	}
}

// warmDevices packs devices 1-20, the device-cloud images of the corpus.
func warmDevices(t *testing.T) [][]byte {
	imgs := make([][]byte, 20)
	for i := range imgs {
		imgs[i] = packedDevice(t, i+1)
	}
	return imgs
}

// medianOf returns the median of xs, reordering them.
func medianOf(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// TestOneShotBatchStartsWarm: a one-shot AnalyzeImages call lifts through
// the process's free list like every other analysis, so it starts with
// the sets earlier calls grew instead of growing its own. Over devices
// 1-20 (lint, one worker) it must allocate within 2% per image of a warm
// long-lived Analyzer on the same images. The passes alternate, and each
// figure is the median of seven; runtime.ReadMemStats flushes every P's
// allocation cache, so each small object counts as it is allocated.
func TestOneShotBatchStartsWarm(t *testing.T) {
	imgs := warmDevices(t)
	opts := []Option{WithLint(), WithWorkers(1)}
	a, err := NewAnalyzer(opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const passes = 7
	var oneShot, warm []float64
	for pass := -1; pass < passes; pass++ {
		before := totalAlloc()
		if _, err := AnalyzeImages(ctx, imgs, opts...); err != nil {
			t.Fatal(err)
		}
		mid := totalAlloc()
		for _, img := range imgs {
			if r := analyzeBatchImage(ctx, a, "", img); r.Err != nil {
				t.Fatal(r.Err)
			}
		}
		end := totalAlloc()
		if pass >= 0 {
			oneShot = append(oneShot, float64(mid-before)/float64(len(imgs)))
			warm = append(warm, float64(end-mid)/float64(len(imgs)))
		}
	}
	o, w := medianOf(oneShot), medianOf(warm)
	t.Logf("per image: one-shot AnalyzeImages %.0f B, warm Analyzer %.0f B (%+.1f%%)", o, w, 100*(o-w)/w)
	if o > 1.02*w {
		t.Errorf("a one-shot batch allocates %.0f B per image, %.1f%% above a warm Analyzer's %.0f B: it does not start warm",
			o, 100*(o-w)/w, w)
	}
}

// TestWarmAnalysisIgnoresGC: nothing an analysis reuses lives in storage
// a collection empties, so an analysis through a warm Analyzer allocates
// within 2% the same bytes whether or not two collections precede it.
// Each figure is the per-image median of seven passes over devices 1-20
// (lint, one worker), the two kinds of pass alternating.
func TestWarmAnalysisIgnoresGC(t *testing.T) {
	imgs := warmDevices(t)
	a, err := NewAnalyzer(WithLint(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pass := func(collect bool) float64 {
		var total uint64
		for _, img := range imgs {
			if collect {
				runtime.GC()
				runtime.GC()
			}
			before := totalAlloc()
			if r := analyzeBatchImage(ctx, a, "", img); r.Err != nil {
				t.Fatal(r.Err)
			}
			total += totalAlloc() - before
		}
		return float64(total) / float64(len(imgs))
	}
	pass(false)
	const passes = 7
	var plain, collected []float64
	for i := 0; i < passes; i++ {
		plain = append(plain, pass(false))
		collected = append(collected, pass(true))
	}
	p, c := medianOf(plain), medianOf(collected)
	t.Logf("per analysis: %.0f B, %.0f B after two collections (%+.1f%%)", p, c, 100*(c-p)/p)
	if c > 1.02*p || c < 0.98*p {
		t.Errorf("an analysis allocates %.0f B after two collections against %.0f B without: storage it reuses is emptied by the collector", c, p)
	}
}
