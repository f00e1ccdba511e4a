// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package serve

// Handler allocation gates: a fresh job costs little more than its
// analysis, a prehit little more than the decode that checks its entry,
// serving a done job copies its stored report into a reused buffer and
// allocates a constant besides, and a submission's body costs about its
// own size whatever its Content-Length claims.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"firmres"
	"firmres/internal/corpus"
	"firmres/internal/image"
)

// allocBytesPerOp runs op once to warm up, then n times, and returns the
// heap bytes allocated per run.
func allocBytesPerOp(n int, op func()) float64 {
	op()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		op()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
}

// discardResponse is a ResponseWriter that keeps only the status and the
// body length, so a gate measures the handler, not a recorder's buffer.
type discardResponse struct {
	header http.Header
	code   int
	n      int
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.code = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += len(p)
	return len(p), nil
}

// freshJobAllocBudget bounds the heap bytes of one fresh job, from its
// submission to the fetch of its report: about 113 KB, most of it the
// analysis with lint and metrics. When the service read each body and
// blob into fresh buffers, marshalled every report, built a metrics
// registry per analysis and read the result file whole for the fetch, a
// job cost about 208 KB.
const freshJobAllocBudget = 125 << 10

// doneJobFetchAllocBudget bounds the heap bytes of one GET of a done job,
// whatever the size of its report: the job's copy, the result file's open
// and the encoder that renders the job into a reused buffer.
const doneJobFetchAllocBudget = 4 << 10

// TestServeFreshJobAllocBudget runs fresh jobs through one worker with
// lint and the cache, as firmserve runs them: fresh variants of devices
// 1-20, each with a nonce file of its own, as the benchmark generates
// them, so every job misses the cache and is analyzed. Each job is
// submitted through Handler(), polled to done and fetched through it. The
// figure is the process's heap bytes per job after a warm-up round, on
// one P, so encoding/json's per-P pool serves each encode the state the
// last one grew.
func TestServeFreshJobAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s := newTestServer(t, Config{MaxInflight: 1, CacheDir: t.TempDir(),
		AnalysisOptions: []firmres.Option{firmres.WithLint()}})
	s.Start()
	defer s.Queue().Close()
	rng := rand.New(rand.NewSource(1))
	const rounds = 4 // one to warm up, three measured
	var imgs [][]byte
	for r := 0; r < rounds; r++ {
		for id := 1; id <= 20; id++ {
			base, err := corpus.BuildImage(corpus.Device(id))
			if err != nil {
				t.Fatal(err)
			}
			nonce := make([]byte, 16)
			rng.Read(nonce)
			base.Files = append(base.Files, image.File{Path: "/var/bench/nonce", Data: []byte(fmt.Sprintf("%x\n", nonce))})
			imgs = append(imgs, base.Pack())
		}
	}
	w := &discardResponse{header: http.Header{}}
	job := func(img []byte) {
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/images", bytes.NewReader(img)))
		if w.code != http.StatusAccepted {
			t.Fatalf("fresh submission = %d, want 202", w.code)
		}
		j, ok := s.q.ByDigest(digestOf(img))
		for ok && !j.State.Terminal() {
			time.Sleep(100 * time.Microsecond)
			j, _ = s.q.Get(j.ID)
		}
		if j.State != StateDone || j.CacheHit {
			t.Fatalf("job %s = %s cache_hit=%v, want done by analysis", j.ID, j.State, j.CacheHit)
		}
		w.n = 0
		s.Handler().ServeHTTP(w, httptest.NewRequest("GET", "/v1/jobs/"+j.ID, nil))
		if w.code != http.StatusOK || w.n < 1000 {
			t.Fatalf("GET done job = %d with %d body bytes, want 200 carrying the report", w.code, w.n)
		}
	}
	warm := len(imgs) / rounds
	for _, img := range imgs[:warm] {
		job(img)
	}
	before := totalAlloc()
	for _, img := range imgs[warm:] {
		job(img)
	}
	per := float64(totalAlloc()-before) / float64(len(imgs)-warm)
	t.Logf("fresh job: %.0f B per job over %d jobs (budget %d)", per, len(imgs)-warm, freshJobAllocBudget)
	if per > freshJobAllocBudget {
		t.Errorf("a fresh job allocates %.0f B, budget %d", per, freshJobAllocBudget)
	}
}

// prehitAllocBudget bounds the heap bytes of one submission a warm cache
// answers, the serve workload's prehit: about 33.9 KB, most of it the
// decode that checks the entry read from disk.
const prehitAllocBudget = 40 << 10

// TestPrehitAllocBound submits fresh variants of devices 1-20, whose
// reports a separate Analyzer with the server's options has cached, to a
// server that has not seen them: every submission is a prehit, answered
// from the cache into a handler buffer.
func TestPrehitAllocBound(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	cacheDir := t.TempDir()
	an, err := firmres.NewAnalyzer(firmres.WithLint(), firmres.WithMetrics(), firmres.WithCache(cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	var imgs [][]byte
	for r := 0; r < 3; r++ {
		for id := 1; id <= 20; id++ {
			base, err := corpus.BuildImage(corpus.Device(id))
			if err != nil {
				t.Fatal(err)
			}
			nonce := make([]byte, 16)
			rng.Read(nonce)
			base.Files = append(base.Files, image.File{Path: "/var/bench/nonce", Data: []byte(fmt.Sprintf("%x\n", nonce))})
			img := base.Pack()
			if _, _, _, err := an.Analyze(context.Background(), nil, img, nil); err != nil {
				t.Fatal(err)
			}
			imgs = append(imgs, img)
		}
	}
	s := newTestServer(t, Config{CacheDir: cacheDir, AnalysisOptions: []firmres.Option{firmres.WithLint()}})
	w := &discardResponse{header: http.Header{}}
	prehit := func(img []byte) {
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/images", bytes.NewReader(img)))
		if w.code != http.StatusCreated {
			t.Fatalf("warm-cache submission = %d, want 201", w.code)
		}
	}
	warm := 20
	for _, img := range imgs[:warm] {
		prehit(img)
	}
	before := totalAlloc()
	for _, img := range imgs[warm:] {
		prehit(img)
	}
	per := float64(totalAlloc()-before) / float64(len(imgs)-warm)
	t.Logf("prehit: %.0f B per submission over %d (budget %d)", per, len(imgs)-warm, prehitAllocBudget)
	if per > prehitAllocBudget {
		t.Errorf("a prehit allocates %.0f B, budget %d", per, prehitAllocBudget)
	}
}

// totalAlloc reads the cumulative bytes allocated to heap objects.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

func TestDoneJobFetchAllocBound(t *testing.T) {
	s := newTestServer(t, Config{})
	img := deviceImage(t, 1)
	rep, err := firmres.AnalyzeImage(img, firmres.WithLint(), firmres.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	job, _, err := s.q.EnqueueDone(digestOf(img), img, "anonymous", 0, report)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/v1/jobs/"+job.ID, nil)
	w := &discardResponse{header: http.Header{}}
	per := allocBytesPerOp(20, func() {
		w.n = 0
		s.Handler().ServeHTTP(w, req)
	})
	if w.code != http.StatusOK || w.n <= len(report) {
		t.Fatalf("GET done job = %d with %d body bytes, want 200 carrying the %d-byte report", w.code, w.n, len(report))
	}
	t.Logf("GET done job: %.0f bytes allocated for a %d-byte report", per, len(report))
	if per > doneJobFetchAllocBudget {
		t.Errorf("GET of a done job allocates %.0f bytes for a %d-byte report, want at most %d", per, len(report), doneJobFetchAllocBudget)
	}
}

func TestSubmitBodyAllocBound(t *testing.T) {
	s := newTestServer(t, Config{})
	img := make([]byte, 256<<10)
	rand.New(rand.NewSource(1)).Read(img)
	// The first submission queues a job (workers never started); every
	// measured one dedups against it, so the body read dominates.
	w := &discardResponse{header: http.Header{}}
	per := allocBytesPerOp(20, func() {
		s.Handler().ServeHTTP(w, httptest.NewRequest("POST", "/v1/images", bytes.NewReader(img)))
	})
	if w.code != http.StatusOK {
		t.Fatalf("resubmission = %d, want 200 dedup", w.code)
	}
	t.Logf("POST: %.0f bytes allocated for a %d-byte image", per, len(img))
	if limit := 2 * float64(len(img)); per > limit {
		t.Errorf("POST of a %d-byte image allocates %.0f bytes, want at most %.0f", len(img), per, limit)
	}
}

// shortBody is what net/http hands a handler when the connection ends
// before the declared Content-Length: the bytes that came, then
// io.ErrUnexpectedEOF.
type shortBody struct{ r io.Reader }

func (b shortBody) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return n, err
}

func TestSubmitLyingContentLength(t *testing.T) {
	s := newTestServer(t, Config{})
	w := &discardResponse{header: http.Header{}}
	per := allocBytesPerOp(5, func() {
		req := httptest.NewRequest("POST", "/v1/images", shortBody{bytes.NewReader([]byte("short body"))})
		req.ContentLength = DefaultMaxImageBytes
		s.Handler().ServeHTTP(w, req)
	})
	if w.code != http.StatusBadRequest {
		t.Fatalf("short body under a 64 MiB Content-Length = %d, want 400", w.code)
	}
	t.Logf("lying Content-Length: %.0f bytes allocated", per)
	if limit := float64(2 * bodyPresize); per > limit {
		t.Errorf("a 64 MiB Content-Length with a short body allocates %.0f bytes, want at most %.0f", per, limit)
	}
}
