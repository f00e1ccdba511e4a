package serve

// HTTP surface tests: the full submit → analyze → fetch-report loop against
// real corpus images, digest dedup, warm-cache prehits, every admission
// refusal (rate limit, full queue, draining), and the /metrics and SSE
// read paths.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"firmres"
	"firmres/internal/corpus"
)

func deviceImage(t *testing.T, id int) []byte {
	t.Helper()
	img, err := corpus.BuildImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildImage(%d): %v", id, err)
	}
	return img.Pack()
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.DataDir == "" {
		cfg.DataDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func submit(t *testing.T, s *Server, data []byte, hdr map[string]string) (*httptest.ResponseRecorder, submitResponse) {
	t.Helper()
	req := httptest.NewRequest("POST", "/v1/images", bytes.NewReader(data))
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	var resp submitResponse
	if rec.Code < 300 {
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("submit response: %v\n%s", err, rec.Body.String())
		}
	}
	return rec, resp
}

func awaitTerminal(t *testing.T, s *Server, id string) jobResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		req := httptest.NewRequest("GET", "/v1/jobs/"+id, nil)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("GET job %s: %d %s", id, rec.Code, rec.Body.String())
		}
		var resp jobResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if resp.State.Terminal() {
			return resp
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s never reached a terminal state", id)
	return jobResponse{}
}

func TestServerSubmitAnalyzeFetchDedup(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 2})
	s.Start()
	defer s.Queue().Close()

	img := deviceImage(t, 1)
	rec, resp := submit(t, s, img, nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s, want 202", rec.Code, rec.Body.String())
	}
	if resp.State != StateQueued || resp.ID == "" {
		t.Fatalf("accepted job = %+v", resp.Job)
	}

	done := awaitTerminal(t, s, resp.ID)
	if done.State != StateDone {
		t.Fatalf("job finished %s (%s: %s), want done", done.State, done.ErrorKind, done.Error)
	}
	if len(done.Report) == 0 || !json.Valid(done.Report) {
		t.Fatalf("done job carries no valid report (%d bytes)", len(done.Report))
	}

	// Same bytes again: answered by the finished job, no new work.
	rec2, resp2 := submit(t, s, img, nil)
	if rec2.Code != http.StatusOK || !resp2.Deduped || resp2.ID != resp.ID {
		t.Errorf("resubmit = %d deduped=%v id=%s, want 200 dedup to %s",
			rec2.Code, resp2.Deduped, resp2.ID, resp.ID)
	}
}

func TestServerCachePrehitAcrossBoots(t *testing.T) {
	cacheDir := t.TempDir()
	img := deviceImage(t, 2)

	warm := newTestServer(t, Config{MaxInflight: 1, CacheDir: cacheDir})
	warm.Start()
	_, first := submit(t, warm, img, nil)
	if got := awaitTerminal(t, warm, first.ID); got.State != StateDone {
		t.Fatalf("warmup finished %s", got.State)
	}
	warm.Queue().Close()

	// A fresh service on the same cache answers at submission time: 201,
	// already done, flagged as a cache hit, no worker fleet needed.
	cold := newTestServer(t, Config{CacheDir: cacheDir})
	rec, resp := submit(t, cold, img, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("warm-cache submit = %d %s, want 201", rec.Code, rec.Body.String())
	}
	if resp.State != StateDone || !resp.CacheHit {
		t.Errorf("prehit job state=%s cache_hit=%v, want done/true", resp.State, resp.CacheHit)
	}
	if got := awaitTerminal(t, cold, resp.ID); len(got.Report) == 0 {
		t.Error("prehit job has no stored report")
	}
}

func TestServerQueueFullReturns429(t *testing.T) {
	// Workers never started: the one queue slot stays occupied.
	s := newTestServer(t, Config{Queue: QueueConfig{MaxQueued: 1}})
	if rec, _ := submit(t, s, deviceImage(t, 1), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec, _ := submit(t, s, deviceImage(t, 2), nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
}

func TestServerPerTenantRateLimit(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 0.0001, Burst: 1, Queue: QueueConfig{MaxQueued: 16}})
	alice := map[string]string{"Authorization": "Bearer alice"}
	if rec, _ := submit(t, s, deviceImage(t, 1), alice); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit = %d", rec.Code)
	}
	rec, _ := submit(t, s, deviceImage(t, 2), alice)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second submit same tenant = %d, want 429", rec.Code)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("Retry-After = %q, want a positive integer", rec.Header().Get("Retry-After"))
	}
	// A different token is a different bucket.
	bob := map[string]string{"X-API-Token": "bob"}
	if rec, _ := submit(t, s, deviceImage(t, 2), bob); rec.Code != http.StatusAccepted {
		t.Errorf("other tenant submit = %d, want 202", rec.Code)
	}
}

func TestServerDrainRefusesIntake(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	rec, _ := submit(t, s, deviceImage(t, 1), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", rec.Code)
	}
	hrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(hrec, httptest.NewRequest("GET", "/healthz", nil))
	if hrec.Code != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hrec.Code)
	}
}

func TestServerBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	rec, _ := submit(t, s, nil, nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("empty body = %d, want 400", rec.Code)
	}
	req := httptest.NewRequest("POST", "/v1/images?priority=high", bytes.NewReader([]byte("x")))
	prec := httptest.NewRecorder()
	s.Handler().ServeHTTP(prec, req)
	if prec.Code != http.StatusBadRequest {
		t.Errorf("bad priority = %d, want 400", prec.Code)
	}
	nrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(nrec, httptest.NewRequest("GET", "/v1/jobs/no-such-job", nil))
	if nrec.Code != http.StatusNotFound {
		t.Errorf("unknown job = %d, want 404", nrec.Code)
	}
	big := newTestServer(t, Config{MaxImageBytes: 8})
	brec, _ := submit(t, big, []byte("123456789"), nil)
	if brec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body = %d, want 413", brec.Code)
	}
}

func TestServerMetricsExposition(t *testing.T) {
	s := newTestServer(t, Config{})
	if rec, _ := submit(t, s, deviceImage(t, 1), nil); rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d", rec.Code)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics = %d", rec.Code)
	}
	got := map[string]int64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		line := sc.Text()
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(name, "firmres_") {
			t.Fatalf("malformed exposition line %q", line)
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			t.Fatalf("non-integer value in %q", line)
		}
		got[name] = n
	}
	for name, want := range map[string]int64{
		"firmres_serve_queue_depth":                           1,
		"firmres_serve_draining":                              0,
		`firmres_serve_submissions_total{outcome="accepted"}`: 1,
		`firmres_serve_jobs_total{state="queued"}`:            1,
	} {
		if got[name] != want {
			t.Errorf("%s = %d, want %d", name, got[name], want)
		}
	}
}

func TestServerSSETerminalSnapshot(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	s.Start()
	defer s.Queue().Close()
	_, resp := submit(t, s, deviceImage(t, 3), nil)
	awaitTerminal(t, s, resp.ID)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/v1/jobs/%s/events", resp.ID), nil))
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	body := rec.Body.String()
	if !strings.HasPrefix(body, "event: state\ndata: ") {
		t.Fatalf("stream does not open with a state frame:\n%s", body)
	}
	var ev Event
	payload := strings.TrimPrefix(strings.SplitN(body, "\n", 3)[1], "data: ")
	if err := json.Unmarshal([]byte(payload), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Job == nil || !ev.Job.State.Terminal() {
		t.Errorf("terminal job's snapshot frame = %+v, want terminal state", ev)
	}
}

// TestServerTenantTokenNeverStoredOrEchoed: API tokens are credentials —
// the journal, the job listing, and every response must carry only the
// hashed tenant key, never the raw token.
func TestServerTenantTokenNeverStoredOrEchoed(t *testing.T) {
	dataDir := t.TempDir()
	s := newTestServer(t, Config{DataDir: dataDir})
	const secret = "firmserve-super-secret-credential"

	rec, resp := submit(t, s, deviceImage(t, 1), map[string]string{"Authorization": "Bearer " + secret})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("submit = %d %s", rec.Code, rec.Body.String())
	}
	if resp.Tenant == "" || resp.Tenant == "anonymous" {
		t.Fatalf("tokened submission has tenant %q, want a per-token key", resp.Tenant)
	}
	if strings.Contains(resp.Tenant, secret) || strings.Contains(rec.Body.String(), secret) {
		t.Errorf("submit response leaks the raw token: %s", rec.Body.String())
	}

	// The same token through either header is the same tenant; a different
	// token is a different one (the rate-limit key still discriminates).
	_, viaHeader := submit(t, s, deviceImage(t, 2), map[string]string{"X-API-Token": secret})
	if viaHeader.Tenant != resp.Tenant {
		t.Errorf("X-API-Token key %q != Bearer key %q for the same token", viaHeader.Tenant, resp.Tenant)
	}
	_, other := submit(t, s, deviceImage(t, 3), map[string]string{"X-API-Token": "another-token"})
	if other.Tenant == resp.Tenant {
		t.Error("different tokens mapped to the same tenant key")
	}

	// The unauthenticated listing exposes tenants by design — they must be
	// hashes, not harvestable credentials.
	lrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(lrec, httptest.NewRequest("GET", "/v1/jobs", nil))
	if strings.Contains(lrec.Body.String(), secret) {
		t.Error("GET /v1/jobs leaks a raw API token")
	}

	// Nothing on disk — journal, blobs, results — may hold the raw token.
	err := filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if bytes.Contains(data, []byte(secret)) {
			t.Errorf("%s persists the raw API token", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestServerSSEFallsBackToPollingOnMissedTerminalEvent: the hub drops
// events for slow consumers, so the stream must also end via the polled
// authoritative state — here simulated by flipping the job terminal
// behind the hub's back.
func TestServerSSEFallsBackToPollingOnMissedTerminalEvent(t *testing.T) {
	s := newTestServer(t, Config{}) // workers never started: the job stays queued
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	_, resp := submit(t, s, deviceImage(t, 4), nil)

	res, err := http.Get(ts.URL + "/v1/jobs/" + resp.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()

	s.q.mu.Lock()
	s.q.jobs[resp.ID].State = StateDone
	s.q.mu.Unlock()

	done := make(chan string, 1)
	go func() {
		body, _ := io.ReadAll(res.Body)
		done <- string(body)
	}()
	select {
	case body := <-done:
		if !strings.Contains(body, `"done"`) {
			t.Errorf("stream ended without a terminal state frame:\n%s", body)
		}
	case <-time.After(10 * ssePollInterval):
		t.Fatal("SSE stream hung after the terminal transition was never evented")
	}
}

// fetchJob GETs one job and returns the raw response body.
func fetchJob(t *testing.T, s *Server, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET job %s: %d %s", id, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestJobReportVerbatim: the report a client fetches is, byte for byte,
// the job's result file, the cache payload, and json.Marshal of the same
// analysis run directly — for a job a worker computed and for a job the
// cache answered at submission.
func TestJobReportVerbatim(t *testing.T) {
	cacheDir := t.TempDir()
	img := deviceImage(t, 6)
	rep, err := firmres.AnalyzeImage(img, firmres.WithLint(), firmres.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxInflight: 1, CacheDir: cacheDir, AnalysisOptions: []firmres.Option{firmres.WithLint()}}

	fresh := newTestServer(t, cfg)
	fresh.Start()
	defer fresh.Queue().Close()
	_, first := submit(t, fresh, img, nil)
	awaitTerminal(t, fresh, first.ID)

	prehit := newTestServer(t, cfg)
	rec, second := submit(t, prehit, img, nil)
	if rec.Code != http.StatusCreated {
		t.Fatalf("warm-cache submit = %d, want 201", rec.Code)
	}

	an, err := firmres.NewAnalyzer(firmres.WithLint(), firmres.WithMetrics(), firmres.WithCache(cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	payload, ok := an.Cached(nil, img)
	if !ok {
		t.Fatal("no cache entry for the analyzed image")
	}
	if !bytes.Equal(payload, want) {
		t.Error("cache payload differs from json.Marshal of AnalyzeImage")
	}
	for _, c := range []struct {
		name string
		s    *Server
		id   string
	}{{"fresh", fresh, first.ID}, {"prehit", prehit, second.ID}} {
		var got struct {
			Report json.RawMessage `json:"report"`
		}
		if err := json.Unmarshal(fetchJob(t, c.s, c.id), &got); err != nil {
			t.Fatal(err)
		}
		result, err := c.s.Queue().AppendResult(nil, c.id)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(result, want) {
			t.Errorf("%s: result file differs from json.Marshal of AnalyzeImage", c.name)
		}
		if !bytes.Equal(got.Report, result) {
			t.Errorf("%s: fetched report differs from the result file:\n%s", c.name, clipBytes(got.Report))
		}
	}
}

// TestDoneJobBodyMatchesWriteJSON: the body a done job's GET streams from
// its result file is, byte for byte, writeJSON of the job with its report,
// for a job a worker computed and one the cache answered; and a done job
// whose result file is gone answers 200 with the job alone.
func TestDoneJobBodyMatchesWriteJSON(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := Config{MaxInflight: 1, CacheDir: cacheDir, AnalysisOptions: []firmres.Option{firmres.WithLint()}}
	img := deviceImage(t, 9)
	fresh := newTestServer(t, cfg)
	fresh.Start()
	defer fresh.Queue().Close()
	_, first := submit(t, fresh, img, nil)
	awaitTerminal(t, fresh, first.ID)
	prehit := newTestServer(t, cfg)
	if rec, _ := submit(t, prehit, img, nil); rec.Code != http.StatusCreated {
		t.Fatalf("warm-cache submit = %d, want 201", rec.Code)
	}
	second, _ := prehit.Queue().ByDigest(digestOf(img))
	for _, c := range []struct {
		name string
		s    *Server
		id   string
	}{{"fresh", fresh, first.ID}, {"prehit", prehit, second.ID}} {
		job, err := c.s.Queue().Get(c.id)
		if err != nil {
			t.Fatal(err)
		}
		result, err := c.s.Queue().AppendResult(nil, c.id)
		if err != nil || result == nil {
			t.Fatalf("%s: result = %v, %v", c.name, result, err)
		}
		want := httptest.NewRecorder()
		writeJSON(want, http.StatusOK, jobResponse{Job: job, Report: result})
		got := httptest.NewRecorder()
		c.s.Handler().ServeHTTP(got, httptest.NewRequest("GET", "/v1/jobs/"+c.id, nil))
		if got.Code != http.StatusOK || got.Header().Get("Content-Type") != "application/json" {
			t.Errorf("%s: GET = %d %q, want 200 application/json", c.name, got.Code, got.Header().Get("Content-Type"))
		}
		if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: streamed body differs from writeJSON:\n%s\nwant\n%s", c.name, clipBytes(got.Body.Bytes()), clipBytes(want.Body.Bytes()))
		}
	}

	if err := os.Remove(prehit.Queue().resultPath(second.ID)); err != nil {
		t.Fatal(err)
	}
	job, _ := prehit.Queue().Get(second.ID)
	want := httptest.NewRecorder()
	writeJSON(want, http.StatusOK, jobResponse{Job: job})
	got := httptest.NewRecorder()
	prehit.Handler().ServeHTTP(got, httptest.NewRequest("GET", "/v1/jobs/"+second.ID, nil))
	if got.Code != http.StatusOK || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Errorf("done job without its result file: GET = %d %s, want 200 %s", got.Code, got.Body.String(), want.Body.String())
	}
	if bytes.Contains(got.Body.Bytes(), []byte(`"report"`)) {
		t.Errorf("done job without its result file still answers with a report: %s", got.Body.String())
	}
}

func clipBytes(b []byte) string {
	if len(b) > 400 {
		return string(b[:400]) + "..."
	}
	return string(b)
}

// TestServerWorkerCacheHitTerminalEvent: a job whose worker is answered by
// the cache announces cache_hit in its terminal event.
func TestServerWorkerCacheHitTerminalEvent(t *testing.T) {
	cacheDir := t.TempDir()
	img := deviceImage(t, 4)
	s := newTestServer(t, Config{MaxInflight: 1, CacheDir: cacheDir})
	_, resp := submit(t, s, img, nil) // cold cache: queued, not a prehit
	if resp.State != StateQueued {
		t.Fatalf("submission state = %s, want queued", resp.State)
	}
	an, err := firmres.NewAnalyzer(firmres.WithMetrics(), firmres.WithCache(cacheDir))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := an.Analyze(context.Background(), nil, img, nil); err != nil {
		t.Fatal(err)
	}

	events, cancel := s.hub.subscribe(resp.ID)
	defer cancel()
	s.Start()
	defer s.Queue().Close()
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type != "state" || !ev.Job.State.Terminal() {
				continue
			}
			if ev.Job.State != StateDone || !ev.Job.CacheHit {
				t.Errorf("terminal event = %s cache_hit=%v, want done with cache_hit", ev.Job.State, ev.Job.CacheHit)
			}
			return
		case <-timeout:
			t.Fatal("no terminal event")
		}
	}
}

// TestServerProgressEventPerStage: a job's analysis publishes one progress
// event per stage it ran, each naming its stage, before its terminal state.
// The server runs neither lint nor probe, so those stages publish none.
func TestServerProgressEventPerStage(t *testing.T) {
	s := newTestServer(t, Config{MaxInflight: 1})
	_, resp := submit(t, s, deviceImage(t, 17), nil)
	events, cancel := s.hub.subscribe(resp.ID)
	defer cancel()
	s.Start()
	defer s.Queue().Close()
	stages := map[string]int{}
	timeout := time.After(30 * time.Second)
	for {
		select {
		case ev := <-events:
			if ev.Type == "progress" {
				stages[ev.Stage]++
				continue
			}
			if ev.Type != "state" || !ev.Job.State.Terminal() {
				continue
			}
			want := map[string]int{}
			for _, name := range firmres.StageNames() {
				if name != "lint-passes" && name != "probe-replay" {
					want[name] = 1
				}
			}
			if ev.Job.State != StateDone || fmt.Sprint(stages) != fmt.Sprint(want) {
				t.Errorf("job %s with progress events %v, want done with %v", ev.Job.State, stages, want)
			}
			return
		case <-timeout:
			t.Fatal("no terminal event")
		}
	}
}

// TestServerRejectsBadAnalysisOptions: a configuration error in the
// analysis options fails New instead of failing every job.
func TestServerRejectsBadAnalysisOptions(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gob")
	_, err := New(Config{DataDir: t.TempDir(), AnalysisOptions: []firmres.Option{firmres.WithModelFile(missing)}})
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("New with a missing model file: err = %v, want os.ErrNotExist", err)
	}
}
