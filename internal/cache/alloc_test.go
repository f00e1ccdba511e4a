// Allocation counts are only meaningful without race instrumentation.
//go:build !race

package cache

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"
)

// TestKeyOfOneAlloc holds KeyOf to one allocation, the key string, for a
// full-size fingerprint.
func TestKeyOfOneAlloc(t *testing.T) {
	img := bytes.Repeat([]byte{0xa5}, 4096)
	const fp = "pipeline=v7;classifier=*semantics.KeywordClassifier;stage-timeout=0;lint=true;metrics=false;"
	if n := testing.AllocsPerRun(100, func() { _ = KeyOf(img, fp) }); n > 1 {
		t.Errorf("KeyOf allocates %.0f times per call, want 1", n)
	}
}

// TestVerifyZeroAllocs holds the frame check of every read to no
// allocation.
func TestVerifyZeroAllocs(t *testing.T) {
	payload := bytes.Repeat([]byte("{}"), 8192)
	hdr := header(payload)
	entry := append(hdr[:], payload...)
	if n := testing.AllocsPerRun(100, func() {
		if _, err := verify(entry); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("verify allocates %.0f times per entry, want 0", n)
	}
}

// allocated returns the heap bytes fn allocates. A collection on either
// side flushes every P's allocation cache into the counter, and the
// counter is process-wide, so the least of runs runs is the one nothing
// else added to.
func allocated(runs int, fn func()) uint64 {
	least := uint64(math.MaxUint64)
	for i := 0; i < runs; i++ {
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fn()
		runtime.GC()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// cappedPutBytes fills a directory capped at entries entries of one size,
// then returns the heap bytes per Put over 2*entries more Puts, each of
// which evicts one entry: two listings of the directory fall in that span
// at any size, so it is the amortized cost.
func cappedPutBytes(t *testing.T, entries int) float64 {
	payload := bytes.Repeat([]byte("p"), 64)
	c, err := Open(t.TempDir(), WithMaxBytes(int64(entries*(headerLen+len(payload)))))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 3*entries)
	for i := range keys {
		keys[i] = KeyOf([]byte(fmt.Sprint(i)), "fp")
	}
	for _, k := range keys[:entries] {
		if err := c.Put(k, payload); err != nil {
			t.Fatal(err)
		}
	}
	n := allocated(1, func() {
		for _, k := range keys[entries:] {
			if err := c.Put(k, payload); err != nil {
				t.Fatal(err)
			}
		}
	})
	if got := c.Stats().Evictions; got != int64(2*entries) {
		t.Fatalf("%d evictions over %d Puts into a full directory, want one each", got, 2*entries)
	}
	return float64(n) / float64(2*entries)
}

// TestCappedPutCostFlat: a capped Put costs the same at 2,000 entries as
// at 200, within 10%, because eviction pops from the process's index and
// lists the directory only once per MaxBytes put. Listing on every Put
// cost 178 KB per Put at 200 entries and 1.77 MB at 2,000.
func TestCappedPutCostFlat(t *testing.T) {
	small, large := cappedPutBytes(t, 200), cappedPutBytes(t, 2000)
	t.Logf("capped Put: %.0f B at 200 entries, %.0f B at 2,000", small, large)
	if large > small*1.1 {
		t.Errorf("a capped Put allocates %.0f B at 2,000 entries against %.0f B at 200: its cost grows with the directory", large, small)
	}
}

// TestLentHitAfterCollections: the read buffers Do lends entries from
// survive collections, so a warm hit of a 20 KB entry after two runtime.GC
// calls allocates what the open, stat and mtime refresh need, under 2 KB,
// not a new buffer. In a sync.Pool it allocated 22.8 KB.
func TestLentHitAfterCollections(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	if err := c.Put(key, bytes.Repeat([]byte("v"), 20<<10)); err != nil {
		t.Fatal(err)
	}
	accept := func([]byte) error { return nil }
	compute := func() ([]byte, bool, error) { return nil, false, errors.New("a warm hit computed") }
	warmHit := func() {
		if hit, err := c.Do(key, accept, compute); !hit || err != nil {
			t.Fatalf("Do = (%t, %v), want a hit", hit, err)
		}
	}
	warmHit() // puts a buffer large enough on the free list
	n := allocated(5, warmHit)
	t.Logf("a warm hit of a 20 KB entry after two collections allocates %d B", n)
	if n >= 2<<10 {
		t.Errorf("a warm hit after two collections allocates %d B, want under 2 KB", n)
	}
}
