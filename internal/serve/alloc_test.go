// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package serve

// Handler allocation gates: serving a done job copies its stored report
// into the response once, and a submission's body costs about its own size
// whatever its Content-Length claims.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"firmres"
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
	if limit := 2 * float64(len(report)); per > limit {
		t.Errorf("GET of a done job allocates %.0f bytes for a %d-byte report, want at most %.0f", per, len(report), limit)
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
