package firmres

// End-to-end contract tests for the persistent analysis cache: cached and
// fresh reports must be byte-identical, any option change must force a
// recompute, corruption must degrade to recomputation, and concurrent
// batch workers must single-flight one image.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func marshalReport(t *testing.T, r *Report) string {
	t.Helper()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// cacheEntries lists the entry files currently in a cache directory.
func cacheEntries(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".fcache") {
			out = append(out, filepath.Join(dir, e.Name()))
		}
	}
	return out
}

func TestCacheColdWarmIdentical(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()

	uncached, err := AnalyzeImage(data, WithLint())
	if err != nil {
		t.Fatal(err)
	}

	var st CacheStats
	cold, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Hits != 0 {
		t.Errorf("cold stats = %+v, want 1 miss, 0 hits", st)
	}

	warm, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Errorf("accumulated stats = %+v, want 1 hit", st)
	}

	if got, want := marshalReport(t, warm), marshalReport(t, cold); got != want {
		t.Errorf("warm report diverged from cold:\n%s\nvs\n%s", clip(got), clip(want))
	}
	if got, want := marshalReport(t, warm), marshalReport(t, uncached); got != want {
		t.Errorf("cached report diverged from uncached:\n%s\nvs\n%s", clip(got), clip(want))
	}
}

func TestCacheOptionsChangeForcesRecompute(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()

	var st CacheStats
	if _, err := AnalyzeImage(data, WithCache(dir), WithCacheStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 {
		t.Fatalf("cold stats = %+v, want 1 miss", st)
	}
	// Enabling lint changes the effective options: same image, new key.
	withLint, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats after option change = %+v, want 2 misses, 0 hits", st)
	}
	// And the lint run is itself cached under its own key.
	warm, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Errorf("stats after warm lint run = %+v, want 1 hit", st)
	}
	if got, want := marshalReport(t, warm), marshalReport(t, withLint); got != want {
		t.Errorf("warm lint report diverged:\n%s\nvs\n%s", clip(got), clip(want))
	}
	if len(cacheEntries(t, dir)) != 2 {
		t.Errorf("entries = %d, want 2 (one per option set)", len(cacheEntries(t, dir)))
	}
}

func TestCacheWorkerCountSharesEntries(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()

	var st CacheStats
	seq, err := AnalyzeImage(data, WithLint(), WithWorkers(1), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeImage(data, WithLint(), WithWorkers(8), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want the -j 8 run to hit the -j 1 entry", st)
	}
	if got, want := marshalReport(t, par), marshalReport(t, seq); got != want {
		t.Errorf("reports diverged across worker counts:\n%s\nvs\n%s", clip(got), clip(want))
	}
}

func TestCacheCorruptEntryForcesReanalysis(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()

	fresh, err := AnalyzeImage(data, WithLint(), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	entries := cacheEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	if err := os.WriteFile(entries[0], []byte("firmcache1 0000\ngarbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	var st CacheStats
	recomputed, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 error + 1 miss", st)
	}
	if got, want := marshalReport(t, recomputed), marshalReport(t, fresh); got != want {
		t.Errorf("re-analysis after corruption diverged:\n%s\nvs\n%s", clip(got), clip(want))
	}
	// The recompute healed the cache: next run hits.
	if _, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st)); err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 {
		t.Errorf("stats after heal = %+v, want 1 hit", st)
	}
}

// TestCacheBatchSingleFlight hands a -j 8 batch eight copies of one image:
// the cache must compute it exactly once and share the result, and every
// slot must render identically (the computing slot keeps its in-memory
// report; the others decode the serialized entry). Runs under -race in
// `make check`, which patrols the single-flight synchronization.
func TestCacheBatchSingleFlight(t *testing.T) {
	data := packedDevice(t, 5)
	imgs := make([][]byte, 8)
	for i := range imgs {
		imgs[i] = data
	}
	dir := t.TempDir()
	br, err := AnalyzeImages(context.Background(), imgs,
		WithLint(), WithWorkers(8), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if br.Summary.Cache == nil {
		t.Fatal("Summary.Cache is nil with WithCache")
	}
	if br.Summary.Cache.Misses != 1 || br.Summary.Cache.Hits != 7 {
		t.Errorf("cache stats = %+v, want 1 miss + 7 hits", *br.Summary.Cache)
	}
	if br.Summary.Reports != 8 {
		t.Fatalf("reports = %d, want 8", br.Summary.Reports)
	}
	want := marshalReport(t, br.Images[0].Report)
	for i, res := range br.Images {
		if got := marshalReport(t, res.Report); got != want {
			t.Errorf("slot %d diverged from slot 0:\n%s", i, clip(got))
		}
	}
	if len(cacheEntries(t, dir)) != 1 {
		t.Errorf("entries = %d, want 1", len(cacheEntries(t, dir)))
	}
}

func TestCacheFailuresNeverCached(t *testing.T) {
	data := packedDevice(t, 21) // script-only: no device-cloud executable
	dir := t.TempDir()
	var st CacheStats
	for i := 0; i < 2; i++ {
		_, err := AnalyzeImage(data, WithCache(dir), WithCacheStats(&st))
		if !errors.Is(err, ErrNoDeviceCloudExecutable) {
			t.Fatalf("run %d: err = %v, want ErrNoDeviceCloudExecutable", i, err)
		}
	}
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses (failures recompute every run)", st)
	}
	if n := len(cacheEntries(t, dir)); n != 0 {
		t.Errorf("entries = %d, want 0 (failures must not be cached)", n)
	}
}

func TestCacheEvictionBounded(t *testing.T) {
	dir := t.TempDir()
	var st CacheStats
	// A tiny budget forces eviction as soon as the second device lands.
	opts := []Option{WithCache(dir), WithCacheMaxBytes(1), WithCacheStats(&st)}
	for _, id := range []int{5, 6} {
		if _, err := AnalyzeImage(packedDevice(t, id), opts...); err != nil {
			t.Fatal(err)
		}
	}
	if st.Evictions == 0 {
		t.Errorf("stats = %+v, want evictions under a 1-byte budget", st)
	}
}

func TestCachedReportRehydratesErrors(t *testing.T) {
	in := &Report{
		Device: "d",
		Errors: []AnalysisError{{
			Stage:  "identify-fields",
			Kind:   "stage-timeout",
			Detail: "analysis stage exceeded its budget: context deadline exceeded",
		}},
	}
	data, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	out, err := decodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Errors) != 1 {
		t.Fatalf("errors = %d, want 1", len(out.Errors))
	}
	if !errors.Is(out.Errors[0].Err, ErrStageTimeout) {
		t.Errorf("rehydrated err = %v, want errors.Is ErrStageTimeout", out.Errors[0].Err)
	}
	if got := out.Errors[0].Err.Error(); got != in.Errors[0].Detail {
		t.Errorf("rehydrated rendering = %q, want %q", got, in.Errors[0].Detail)
	}
}

func TestClearCache(t *testing.T) {
	dir := t.TempDir()
	if _, err := AnalyzeImage(packedDevice(t, 5), WithCache(dir)); err != nil {
		t.Fatal(err)
	}
	if len(cacheEntries(t, dir)) == 0 {
		t.Fatal("no entries to clear")
	}
	if err := ClearCache(dir); err != nil {
		t.Fatal(err)
	}
	if n := len(cacheEntries(t, dir)); n != 0 {
		t.Errorf("entries after ClearCache = %d, want 0", n)
	}
}

func TestCachedReportProbe(t *testing.T) {
	data := packedDevice(t, 7)
	dir := t.TempDir()

	// Cold cache: the probe misses without creating an entry.
	if rep, hit, err := CachedReport(data, WithCache(dir)); rep != nil || hit || err != nil {
		t.Fatalf("cold probe = (%v, %v, %v), want (nil, false, nil)", rep, hit, err)
	}
	if got := len(cacheEntries(t, dir)); got != 0 {
		t.Fatalf("probe created %d cache entries", got)
	}

	want, err := AnalyzeImage(data, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	rep, hit, err := CachedReport(data, WithCache(dir))
	if err != nil || !hit {
		t.Fatalf("warm probe = (hit=%v, %v), want a hit", hit, err)
	}
	if got, wantS := marshalReport(t, rep), marshalReport(t, want); got != wantS {
		t.Errorf("probed report diverged from analyzed report:\n%s\nvs\n%s", clip(got), clip(wantS))
	}

	// A different option fingerprint is a different key: no hit.
	if _, hit, _ := CachedReport(data, WithCache(dir), WithLint()); hit {
		t.Error("probe hit across an option-fingerprint change")
	}
	// No cache configured: the probe is inert.
	if rep, hit, err := CachedReport(data); rep != nil || hit || err != nil {
		t.Errorf("cacheless probe = (%v, %v, %v), want (nil, false, nil)", rep, hit, err)
	}
}
