// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"math"
	"runtime"
	"strings"
	"testing"
)

// cacheHitAllocBudget is the committed ceiling on heap bytes allocated per
// warm cache hit of a one-worker batch: the key, a verified read into a
// recycled buffer, and the report's decode, which is most of it. The
// measured cost is 19.0-20.2 KB with enumerated fields sharing the code's
// strings, and was 22.0-23.0 KB while the one-pass decoder copied them;
// decoding with encoding/json cost about 44 KB, and reading each entry
// into a fresh buffer as well about 63 KB.
const cacheHitAllocBudget = 0.025e6

// TestCacheHitAllocBudget pins the allocation cost of a warm re-scan:
// devices 1-20 (the ones with reports) through AnalyzeImages with lint,
// the cache and one worker. The first warm-up pass fills the cache and
// the second the free lists; ten passes are then measured, every image a
// hit.
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

// analyzeHitAllocBudget is the committed ceiling on heap bytes allocated
// per warm Analyzer.Analyze hit, FirmServe's worker path: the key, a
// verified read into a recycled buffer, the report's one decode and the
// copy of the payload Analyze hands back. The measured cost is
// 37.8-39.4 KB; reading each hit into a fresh buffer and decoding it
// twice, once to check the entry and once for the report, cost
// 56.6-58.6 KB.
const analyzeHitAllocBudget = 0.045e6

// TestAnalyzeHitAllocBudget pins the allocation cost of warm
// Analyzer.Analyze hits: devices 1-20 with lint through one Analyzer with
// the cache. The first warm-up pass fills the cache and the second the
// free lists; ten passes are then measured, every image a hit.
func TestAnalyzeHitAllocBudget(t *testing.T) {
	imgs := make([][]byte, 20)
	for i := range imgs {
		imgs[i] = packedDevice(t, i+1)
	}
	a, err := NewAnalyzer(WithLint(), WithWorkers(1), WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	analyzeAll := func(wantHit bool) {
		for i, img := range imgs {
			_, _, hit, err := a.Analyze(ctx, nil, img, nil)
			if err != nil || (wantHit && !hit) {
				t.Fatalf("Analyze device %d = (hit %t, %v), want a hit", i+1, hit, err)
			}
		}
	}
	analyzeAll(false)
	analyzeAll(true)
	const passes = 10
	before := heapAllocBytes()
	for i := 0; i < passes; i++ {
		analyzeAll(true)
	}
	perImage := float64(heapAllocBytes()-before) / float64(passes*len(imgs))
	t.Logf("Analyze hits: %.0f B/image over %d passes (budget %.0f)", perImage, passes, analyzeHitAllocBudget)
	if perImage > analyzeHitAllocBudget {
		t.Errorf("warm Analyze hits allocate %.0f B/image, budget %.0f", perImage, analyzeHitAllocBudget)
	}
}

// malformedEntryAllocBudget is the ceiling on heap bytes one decode of a
// malformed payload may allocate before it fails. A list is presized from
// at most maxPresize elements, 45 KB for 256 Messages, however many commas
// follow its bracket; uncapped, the Messages payload below allocated
// 3.2 MB.
const malformedEntryAllocBudget = 64 << 10

// TestMalformedEntryAllocBound decodes payloads that open a list and then
// hold 18,000 commas, the Report's messages and one message's fields, as a
// writer to the cache directory could store them with a valid checksum.
// Each must fail within the budget. The heap counter counts a small object
// only once its span leaves the allocating P's cache, so a GC, which
// flushes those caches, brackets each decode; and it is process-wide, so
// the least of several decodes is the one nothing else added to.
func TestMalformedEntryAllocBound(t *testing.T) {
	const head = `{"Device":"","Version":"","Executable":"","Messages":[`
	commas := strings.Repeat(",", 18000)
	payloads := map[string]string{
		"messages": head + commas + `]}`,
		"fields": head + `{"Function":"","Context":"","Deliver":"","Format":"","Topic":"",` +
			`"Path":"","Body":"","Fields":[` + commas + `]}]}`,
	}
	for name, payload := range payloads {
		js := []byte(payload)
		perDecode := uint64(math.MaxUint64)
		for i := 0; i < 5; i++ {
			runtime.GC()
			before := heapAllocBytes()
			if _, err := decodeReport(js); err == nil {
				t.Fatalf("%s: malformed payload decoded", name)
			}
			runtime.GC()
			perDecode = min(perDecode, heapAllocBytes()-before)
		}
		t.Logf("%s: %d B per failed decode (budget %d)", name, perDecode, malformedEntryAllocBudget)
		if perDecode >= malformedEntryAllocBudget {
			t.Errorf("%s: a failed decode allocates %d B, budget %d", name, perDecode, malformedEntryAllocBudget)
		}
	}
}

// TestValidUTF8KeepsValidInput pins that a report's UTF-8 check costs
// nothing on valid input: the string, or the slice, comes back as it is.
func TestValidUTF8KeepsValidInput(t *testing.T) {
	s := "uid-532729 \ufffd \u00e9"
	ss := []string{"mac=AA:BB", s}
	if n := testing.AllocsPerRun(100, func() {
		if validUTF8(s) != s || &validUTF8s(ss)[0] != &ss[0] {
			t.Fatal("valid input was not returned as it is")
		}
	}); n != 0 {
		t.Errorf("validUTF8 on valid input: %v allocs, want 0", n)
	}
}
