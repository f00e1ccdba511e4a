package firmres

// End-to-end contract tests for the persistent analysis cache: cached and
// fresh reports must be byte-identical, any option change must force a
// recompute, corruption must degrade to recomputation, and concurrent
// batch workers must single-flight one image.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"firmres/internal/cache"
	"firmres/internal/corpus"
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

// TestCacheInvalidUTF8ColdWarmIdentical analyzes device 17 with a byte
// that is not UTF-8 in its device name, and two in the NVRAM value one of
// its fields reads. json.Marshal writes each such byte as U+FFFD, so a
// report that kept the bytes, or replaced the run of two with one U+FFFD,
// would come back from its cache entry as a different report: the cold and
// the warm report must be deep-equal and marshal to the same bytes.
func TestCacheInvalidUTF8ColdWarmIdentical(t *testing.T) {
	img, err := corpus.BuildImage(corpus.Device(17))
	if err != nil {
		t.Fatal(err)
	}
	img.Device = "Cam\xffera"
	nv, ok := img.File("/etc/nvram.defaults")
	if !ok {
		t.Fatal("device 17 has no /etc/nvram.defaults")
	}
	nv.Data = bytes.Replace(nv.Data, []byte("uid=uid-"), []byte("uid=uid-\xff\xfe"), 1)
	data := img.Pack()
	dir := t.TempDir()

	var st CacheStats
	cold, err := AnalyzeImage(data, WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	warm, err := AnalyzeImage(data, WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss, then 1 hit", st)
	}
	if cold.Device != "Cam\ufffdera" {
		t.Errorf("cold Device = %q, want the invalid byte as U+FFFD", cold.Device)
	}
	var uid string
	for _, f := range cold.Messages[0].Fields {
		if f.SourceKey == "uid" {
			uid = f.Value
		}
	}
	if uid != "uid-\ufffd\ufffd532729" {
		t.Errorf("cold uid field = %q, want each invalid byte as U+FFFD", uid)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("warm report differs from cold:\n%s\nvs\n%s", clip(marshalReport(t, warm)), clip(marshalReport(t, cold)))
	}
	cj, err := json.Marshal(cold)
	if err != nil {
		t.Fatal(err)
	}
	wj, err := json.Marshal(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cj, wj) {
		t.Error("cold and warm reports marshal to different bytes")
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

// TestCacheUndecodableEntryForcesReanalysis: an entry whose checksum
// matches but whose payload does not decode as a report is corrupt, as
// one that fails its checksum is. Every analysis — a batch hit
// (AnalyzeImage, AnalyzeImages) and FirmServe's Analyze — deletes it,
// counts it in CacheStats().Errors and never hits it, and recomputes the
// report and heals the entry; the Cached probe misses it and leaves it in
// place.
func TestCacheUndecodableEntryForcesReanalysis(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()
	fresh, err := AnalyzeImage(data, WithLint(), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	want := marshalReport(t, fresh)
	entries := cacheEntries(t, dir)
	if len(entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(entries))
	}
	key := strings.TrimSuffix(filepath.Base(entries[0]), ".fcache")
	cc, err := cache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// plant rewrites the image's entry as a well-framed payload that is
	// valid JSON but not a report.
	plant := func() {
		t.Helper()
		if err := cc.Put(key, []byte(`{"Device":"x"}`)); err != nil {
			t.Fatal(err)
		}
	}

	plant()
	var st CacheStats
	rep, err := AnalyzeImage(data, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatalf("AnalyzeImage over an undecodable entry: %v", err)
	}
	if got := marshalReport(t, rep); got != want {
		t.Errorf("re-analysis over an undecodable entry diverged:\n%s\nvs\n%s", clip(got), clip(want))
	}
	if st.Errors != 1 || st.Misses != 1 || st.Hits != 0 {
		t.Errorf("AnalyzeImage stats = %+v, want 1 error + 1 miss", st)
	}

	plant()
	st = CacheStats{}
	br, err := AnalyzeImages(context.Background(), [][]byte{data, data}, WithLint(), WithCache(dir), WithCacheStats(&st))
	if err != nil {
		t.Fatal(err)
	}
	for i, ir := range br.Images {
		if ir.Err != nil {
			t.Fatalf("AnalyzeImages image %d: %v", i, ir.Err)
		}
		if got := marshalReport(t, ir.Report); got != want {
			t.Errorf("AnalyzeImages image %d diverged", i)
		}
	}
	if st.Errors != 1 || st.Misses != 1 || st.Hits != 1 {
		t.Errorf("AnalyzeImages stats = %+v, want 1 error, 1 miss and the healed entry's hit", st)
	}

	a, err := NewAnalyzer(WithLint(), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	plant()
	if js, hit := a.Cached(nil, data); hit {
		t.Errorf("Cached answered an undecodable entry: %s", clip(string(js)))
	}
	if n := len(cacheEntries(t, dir)); n != 1 {
		t.Errorf("Cached removed the undecodable entry (%d entries), want it left in place", n)
	}
	plant()
	rep, js, hit, err := a.Analyze(context.Background(), nil, data, nil)
	if err != nil || hit {
		t.Fatalf("Analyze over an undecodable entry = hit %t, %v; want a recomputed miss", hit, err)
	}
	if got := marshalReport(t, rep); got != want {
		t.Errorf("Analyze over an undecodable entry diverged")
	}
	if cached, ok := a.Cached(nil, data); !ok || !bytes.Equal(cached, js) {
		t.Errorf("Cached after the recompute = %t, want the healed entry", ok)
	}
	if s := a.CacheStats(); s.Errors != 1 || s.Misses != 1 || s.Hits != 0 {
		t.Errorf("Analyzer stats = %+v, want 1 error (Analyze) + 1 miss", s)
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

// goldenDevices returns the golden images of the listed corpus devices,
// symbols intact, in the order given.
func goldenDevices(t *testing.T, ids ...int) []goldenImage {
	t.Helper()
	byID := map[int]goldenImage{}
	for _, g := range goldenCrawlSet(t) {
		if g.path == goldenPath(g.id) {
			byID[g.id] = g
		}
	}
	out := make([]goldenImage, len(ids))
	for i, id := range ids {
		out[i] = byID[id]
	}
	return out
}

// goldenImages returns the packed bytes of each golden image.
func goldenImages(set []goldenImage) [][]byte {
	imgs := make([][]byte, len(set))
	for i, g := range set {
		imgs[i] = g.data
	}
	return imgs
}

// TestCachedReportsOutliveReadBuffer decodes a warm batch of the corpus
// out of the cache's pooled read buffers, lets a second warm batch read
// into the same buffers, and only then checks the first batch's reports
// against their goldens: a decoded report must own every byte it holds.
func TestCachedReportsOutliveReadBuffer(t *testing.T) {
	set := goldenDevices(t, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22)
	imgs := goldenImages(set)
	opts := []Option{WithLint(), WithWorkers(1), WithCache(t.TempDir())}
	ctx := context.Background()
	if _, err := AnalyzeImages(ctx, imgs, opts...); err != nil {
		t.Fatal(err)
	}
	first, err := AnalyzeImages(ctx, imgs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	second, err := AnalyzeImages(ctx, imgs, opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, br := range []*BatchReport{first, second} {
		if br.Summary.Cache.Hits != 20 {
			t.Fatalf("warm pass stats = %+v, want 20 hits", *br.Summary.Cache)
		}
	}
	for i, g := range set {
		checkGolden(t, g, first.Images[i].Report, first.Images[i].Err)
	}
}

// TestCacheWarmBatchConcurrent runs a warm eight-worker batch of eight
// interleaved copies each of devices 3, 5, 14 and 21, so workers decode
// different entries out of pooled buffers at once. Every report must
// equal its golden, and device 21, never cached, must fail as it does
// cold. The race leg runs it with -count=10.
func TestCacheWarmBatchConcurrent(t *testing.T) {
	devices := goldenDevices(t, 3, 5, 14, 21)
	dir := t.TempDir()
	ctx := context.Background()
	if _, err := AnalyzeImages(ctx, goldenImages(devices), WithLint(), WithCache(dir)); err != nil {
		t.Fatal(err)
	}
	var set []goldenImage
	for i := 0; i < 8; i++ {
		set = append(set, devices...)
	}
	br, err := AnalyzeImages(ctx, goldenImages(set), WithLint(), WithWorkers(8), WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i, g := range set {
		res := br.Images[i]
		if g.id == 21 && res.Kind != "no-device-cloud-executable" {
			t.Errorf("image %d (device 21): kind %q, want no-device-cloud-executable", i, res.Kind)
		}
		checkGolden(t, g, res.Report, res.Err)
	}
	if s := br.Summary.Cache; s.Hits != 24 || s.Errors != 0 {
		t.Errorf("warm batch stats = %+v, want 24 hits and no errors", *s)
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

// TestCacheTimeoutReportsNeverCached: an analysis the caller's context
// cut short is fatal and leaves no entry, so the next live call with the
// same bytes analyzes again.
func TestCacheTimeoutReportsNeverCached(t *testing.T) {
	data := packedDevice(t, 3)
	dir := t.TempDir()
	var st CacheStats
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut := flightObserver{
		start: func(e SpanEvent) {
			if e.Name == "recover-semantics" {
				cancel()
			}
		},
		end: func(SpanEvent) {},
	}
	_, err := AnalyzeImageContext(ctx, data, WithCache(dir), WithCacheStats(&st), WithObserver(cut))
	if !errors.Is(err, ErrStageTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrStageTimeout wrapping context.Canceled", err)
	}
	if n := len(cacheEntries(t, dir)); n != 0 {
		t.Errorf("entries = %d, want 0 (a cut-short analysis must not be cached)", n)
	}
	if _, err := AnalyzeImage(data, WithCache(dir), WithCacheStats(&st)); err != nil {
		t.Fatalf("live call: %v", err)
	}
	if st.Misses != 2 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses (the live call recomputes)", st)
	}
}

func TestCacheableRule(t *testing.T) {
	for _, tc := range []struct {
		name string
		rep  Report
		want bool
	}{
		{"probe-failed", Report{Probe: &ProbeReport{Probed: 2, Counts: map[string]int{ProbeGranted: 1, ProbeFailed: 1}}}, false},
		{"stage-panic", Report{Errors: []AnalysisError{{Stage: "check-forms", Kind: "stage-panic"}}}, true},
		{"clean", Report{Probe: &ProbeReport{Probed: 1, Counts: map[string]int{ProbeDenied: 1}}}, true},
	} {
		if got := cacheable(&tc.rep); got != tc.want {
			t.Errorf("%s: cacheable = %t, want %t", tc.name, got, tc.want)
		}
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

// TestCacheCapMisconfigured: a negative cache cap, or a cap without a
// cache, is a configuration error from NewAnalyzer and the batch
// functions, not an unbounded cache or none at all.
func TestCacheCapMisconfigured(t *testing.T) {
	img := packedDevice(t, 5)
	for name, opts := range map[string][]Option{
		"negative":           {WithCache(t.TempDir()), WithCacheMaxBytes(-7)},
		"no cache":           {WithCacheMaxBytes(100)},
		"negative, no cache": {WithCacheMaxBytes(-1)},
	} {
		if _, err := NewAnalyzer(opts...); err == nil {
			t.Errorf("%s: NewAnalyzer accepted the cap", name)
		}
		if _, err := AnalyzeImages(context.Background(), [][]byte{img}, opts...); err == nil {
			t.Errorf("%s: AnalyzeImages accepted the cap", name)
		}
		if _, err := AnalyzeImage(img, opts...); err == nil {
			t.Errorf("%s: AnalyzeImage accepted the cap", name)
		}
	}
	if _, err := NewAnalyzer(WithCacheMaxBytes(0)); err != nil {
		t.Errorf("a zero cap without a cache, the default: %v", err)
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

// TestAnalyzerCachedProbe: a probe never creates an entry, misses across
// an option change, and is inert without a cache. What a warm probe serves
// is TestAnalyzerBytesAreCanonical's.
func TestAnalyzerCachedProbe(t *testing.T) {
	data := packedDevice(t, 7)
	dir := t.TempDir()
	a, err := NewAnalyzer(WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}

	// Cold cache: the probe misses without creating an entry.
	if js, hit := a.Cached(nil, data); js != nil || hit {
		t.Fatalf("cold probe = (%d bytes, %v), want a miss", len(js), hit)
	}
	if got := len(cacheEntries(t, dir)); got != 0 {
		t.Fatalf("probe created %d cache entries", got)
	}

	if _, _, _, err := a.Analyze(context.Background(), nil, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, hit := a.Cached(nil, data); !hit {
		t.Fatal("warm probe missed")
	}

	// A different option fingerprint is a different key: no hit.
	linted, err := NewAnalyzer(WithCache(dir), WithLint())
	if err != nil {
		t.Fatal(err)
	}
	if _, hit := linted.Cached(nil, data); hit {
		t.Error("probe hit across an option-fingerprint change")
	}
	// No cache configured: the probe is inert.
	bare, err := NewAnalyzer()
	if err != nil {
		t.Fatal(err)
	}
	if js, hit := bare.Cached(nil, data); js != nil || hit {
		t.Errorf("cacheless probe = (%d bytes, %v), want a miss", len(js), hit)
	}
}
