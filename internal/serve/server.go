package serve

// The HTTP front door. Routes:
//
//	POST /v1/images           submit an image (raw bytes); 202 + job, or
//	                          200 when deduplicated against an existing
//	                          job, or 201 already-done on a cache prehit
//	GET  /v1/jobs             list jobs + queue census
//	GET  /v1/jobs/{id}        job status; full Report JSON once done
//	GET  /v1/jobs/{id}/events SSE stream: state transitions + stage progress
//	GET  /metrics             Prometheus text (internal/obs exposition)
//	GET  /healthz             200 serving / 503 draining
//
// Admission control happens in submission order: drain check, per-tenant
// token bucket (429 + Retry-After), size cap (413), digest dedup, cache
// prehit, bounded queue (429 + Retry-After). Nothing past the dedup step
// runs analysis on the request goroutine — workers own all compute.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmres"
	"firmres/internal/errdefs"
	"firmres/internal/obs"
	"firmres/internal/parallel"
)

// DefaultMaxImageBytes caps one submission's body; the corpus images are
// tens of kilobytes, real-world firmware tens of megabytes.
const DefaultMaxImageBytes = 64 << 20

// ssePollInterval bounds how long an SSE stream can outlive its job: the
// hub is lossy for slow consumers, so the events handler re-reads the
// authoritative job state this often and ends the stream on a terminal
// state even when the terminal event was dropped.
const ssePollInterval = time.Second

// Config assembles one Server.
type Config struct {
	// DataDir roots the job journal, blob store, and result store.
	DataDir string
	// CacheDir roots the shared persistent result cache (FirmCache). Empty
	// disables caching — every job recomputes.
	CacheDir string
	// MaxInflight sizes the worker fleet (concurrent analyses). <= 0
	// selects GOMAXPROCS via parallel.CPUWorkers.
	MaxInflight int
	// Queue tunes the job queue (bounds, retry policy).
	Queue QueueConfig
	// RatePerSec and Burst shape the per-tenant token buckets.
	// RatePerSec <= 0 disables rate limiting.
	RatePerSec float64
	Burst      int
	// MaxImageBytes caps a submission body; <= 0 selects the default.
	MaxImageBytes int64
	// AnalysisOptions configures every job's analysis (lint, stripped
	// mode, stage timeout, ...). The cache, metrics, and progress options
	// are added by the server — do not pass them here.
	AnalysisOptions []firmres.Option
}

// Server is one FirmServe instance: queue + worker fleet + HTTP handler.
type Server struct {
	cfg Config
	q   *Queue
	lim *limiter
	hub *hub
	mux *http.ServeMux

	metrics  *obs.Metrics // serve-side counters and histograms
	latency  *obs.Histogram
	draining atomic.Bool

	// analysis-side aggregates, merged per finished job
	aggMu      sync.Mutex
	reportAgg  map[string]int64
	cacheStats firmres.CacheStats

	workersStop context.CancelFunc
	workersDone chan struct{}
	workersOnce sync.Once
	workerCount int
}

// New opens the queue (resuming its journal) and assembles the server.
// Call Start to launch the worker fleet.
func New(cfg Config) (*Server, error) {
	if cfg.DataDir == "" {
		return nil, fmt.Errorf("serve: Config.DataDir is required")
	}
	if cfg.MaxImageBytes <= 0 {
		cfg.MaxImageBytes = DefaultMaxImageBytes
	}
	s := &Server{
		cfg:         cfg,
		lim:         newLimiter(cfg.RatePerSec, cfg.Burst),
		hub:         newHub(),
		metrics:     obs.NewMetrics(),
		reportAgg:   map[string]int64{},
		workersDone: make(chan struct{}),
		workerCount: parallel.CPUWorkers(cfg.MaxInflight),
	}
	s.latency = s.metrics.Histogram("serve_job_latency_ms")
	qcfg := cfg.Queue
	qcfg.OnTransition = s.onTransition
	q, err := OpenQueue(filepath.Join(cfg.DataDir, "queue"), qcfg)
	if err != nil {
		return nil, err
	}
	s.q = q
	s.routes()
	return s, nil
}

// Start launches the worker fleet in the background. Idempotent.
func (s *Server) Start() {
	s.workersOnce.Do(func() {
		ctx, cancel := context.WithCancel(context.Background())
		s.workersStop = cancel
		go func() {
			defer close(s.workersDone)
			parallel.Fleet(ctx, s.workerCount, func(ctx context.Context, _ int) {
				for {
					job, ok := s.q.Dequeue(ctx)
					if !ok {
						return
					}
					s.process(ctx, job)
				}
			})
		}()
	})
}

// Drain shuts the service down gracefully: intake stops (submissions get
// 503, /healthz flips), the queue closes (queued jobs stay journaled for
// the next boot), and inflight analyses run to completion. ctx bounds the
// wait; on expiry the workers are cancelled — their jobs fail with a
// transient stage-timeout, which re-journals them as queued, so even a
// forced drain loses nothing.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Close()
	s.Start() // a never-started server still drains cleanly
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		s.workersStop()
		<-s.workersDone
		return fmt.Errorf("serve: drain deadline hit; inflight jobs re-journaled: %w", ctx.Err())
	}
}

// Queue exposes the underlying job queue (tests, embedders).
func (s *Server) Queue() *Queue { return s.q }

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/images", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleJobs)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleEvents)
	s.mux.Handle("GET /metrics", obs.MetricsHandler(s.Snapshot))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
}

// onTransition is the queue's state-change hook: counts terminal states
// and forwards every change to SSE subscribers.
func (s *Server) onTransition(j Job) {
	if j.State.Terminal() {
		s.metrics.Counter("serve_jobs_completed_total", "state", string(j.State)).Inc()
	}
	job := j
	s.hub.publish(j.ID, Event{Type: "state", Job: &job})
}

// analysisOptions assembles one job's options: the configured analysis
// shape plus the server-owned cache and metrics plumbing.
func (s *Server) analysisOptions(stats *firmres.CacheStats) []firmres.Option {
	opts := append([]firmres.Option{}, s.cfg.AnalysisOptions...)
	opts = append(opts, firmres.WithMetrics())
	if s.cfg.CacheDir != "" {
		opts = append(opts, firmres.WithCache(s.cfg.CacheDir))
		if stats != nil {
			opts = append(opts, firmres.WithCacheStats(stats))
		}
	}
	return opts
}

// process runs one claimed job to a terminal state (or a journaled retry).
func (s *Server) process(ctx context.Context, job Job) {
	start := time.Now()
	data, err := s.q.Blob(job.Digest)
	if err != nil {
		// A missing blob cannot heal: terminal. (Not transient, so Fail
		// will not retry it.)
		_, _ = s.q.Fail(job.ID, err)
		return
	}
	var stats firmres.CacheStats
	opts := append(s.analysisOptions(&stats), firmres.WithObserver(&stageObserver{s: s, jobID: job.ID}))
	rep, err := firmres.AnalyzeImageContext(ctx, data, opts...)
	s.latency.Observe(time.Since(start).Milliseconds())
	s.mergeAnalysis(rep, stats)
	if err != nil {
		if retrying, _ := s.q.Fail(job.ID, err); retrying {
			s.metrics.Counter("serve_retries_total").Inc()
		}
		return
	}
	buf, err := json.Marshal(rep)
	if err != nil {
		_, _ = s.q.Fail(job.ID, fmt.Errorf("serve: report encode: %w", err))
		return
	}
	if err := s.q.Complete(job.ID, buf); err == nil && stats.Hits > 0 {
		s.markCacheHit(job.ID)
	}
}

// markCacheHit flags a job whose worker was answered from the cache, so
// clients (and the soak gate) can count warm-round hits per job.
func (s *Server) markCacheHit(id string) {
	s.q.mu.Lock()
	if j, ok := s.q.jobs[id]; ok && !j.CacheHit {
		j.CacheHit = true
		_ = s.q.persist(j)
	}
	s.q.mu.Unlock()
}

// mergeAnalysis folds one job's analysis metrics and cache counters into
// the server-lifetime aggregates.
func (s *Server) mergeAnalysis(rep *firmres.Report, stats firmres.CacheStats) {
	s.aggMu.Lock()
	if rep != nil {
		s.reportAgg = firmres.MergeMetrics(s.reportAgg, rep.Metrics)
	}
	s.cacheStats = firmres.CacheStats{
		Hits:      s.cacheStats.Hits + stats.Hits,
		Misses:    s.cacheStats.Misses + stats.Misses,
		Evictions: s.cacheStats.Evictions + stats.Evictions,
		Errors:    s.cacheStats.Errors + stats.Errors,
	}
	s.aggMu.Unlock()
}

// stageObserver forwards finished pipeline-stage spans of one job as SSE
// progress events. Stage spans are the direct children of the per-image
// root span (the span with Parent 0).
type stageObserver struct {
	s      *Server
	jobID  string
	rootID atomic.Int64
}

func (o *stageObserver) SpanStart(ev firmres.SpanEvent) {
	if ev.Parent == 0 {
		o.rootID.Store(ev.ID)
	}
}

func (o *stageObserver) SpanEnd(ev firmres.SpanEvent) {
	if ev.Parent != o.rootID.Load() || ev.Parent == 0 {
		return
	}
	o.s.hub.publish(o.jobID, Event{
		Type:   "progress",
		Stage:  ev.Name,
		Status: ev.Status,
		Millis: ev.Duration().Milliseconds(),
	})
}

// Snapshot assembles the full /metrics view: serve counters and latency,
// live queue gauges, the shared cache's counters, and the merged analysis
// metrics of every finished job.
func (s *Server) Snapshot() map[string]int64 {
	snap := s.metrics.Snapshot()
	c := s.q.Counts()
	snap["serve_queue_depth"] = int64(c.Queued)
	snap["serve_jobs_inflight"] = int64(c.Running)
	snap[obs.Key("serve_jobs_total", "state", "queued")] = int64(c.Queued)
	snap[obs.Key("serve_jobs_total", "state", "running")] = int64(c.Running)
	snap[obs.Key("serve_jobs_total", "state", "done")] = int64(c.Done)
	snap[obs.Key("serve_jobs_total", "state", "failed")] = int64(c.Failed)
	if s.draining.Load() {
		snap["serve_draining"] = 1
	} else {
		snap["serve_draining"] = 0
	}
	s.aggMu.Lock()
	snap = obs.MergeSnapshots(snap, s.cacheStats.Snapshot())
	snap = obs.MergeSnapshots(snap, s.reportAgg)
	s.aggMu.Unlock()
	return snap
}

// ---- HTTP handlers ----

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
	Kind  string `json:"kind,omitempty"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, apiError{Error: err.Error(), Kind: errdefs.Kind(err)})
}

// tenantOf derives the tenant key from the API token ("Authorization:
// Bearer T" or "X-API-Token: T"), else the anonymous tenant. The raw
// token is a credential: only its sha256 digest is used, so the key can
// be journaled, listed, and echoed in responses without ever exposing
// another tenant's secret.
func tenantOf(r *http.Request) string {
	var tok string
	if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
		tok = strings.TrimSpace(auth[len("Bearer "):])
	}
	if tok == "" {
		tok = r.Header.Get("X-API-Token")
	}
	if tok == "" {
		return "anonymous"
	}
	sum := sha256.Sum256([]byte(tok))
	return "t-" + hex.EncodeToString(sum[:8])
}

// submitResponse is a job plus submission-path annotations.
type submitResponse struct {
	Job
	// Deduped marks a submission answered by an existing job for the same
	// image digest.
	Deduped bool `json:"deduped,omitempty"`
}

func (s *Server) countSubmission(outcome string) {
	s.metrics.Counter("serve_submissions_total", "outcome", outcome).Inc()
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		s.countSubmission("draining")
		writeError(w, http.StatusServiceUnavailable, errdefs.ErrDraining)
		return
	}
	tenant := tenantOf(r)
	if ok, retryAfter := s.lim.allow(tenant); !ok {
		s.countSubmission("rate_limited")
		w.Header().Set("Retry-After", strconv.Itoa(int(retryAfter.Seconds())+1))
		writeError(w, http.StatusTooManyRequests, errdefs.ErrRateLimited)
		return
	}
	body := http.MaxBytesReader(w, r.Body, s.cfg.MaxImageBytes)
	data, err := io.ReadAll(body)
	if err != nil {
		s.countSubmission("invalid")
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("image exceeds %d bytes", s.cfg.MaxImageBytes))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if len(data) == 0 {
		s.countSubmission("invalid")
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty image body"))
		return
	}
	priority := 0
	if p := r.URL.Query().Get("priority"); p != "" {
		priority, err = strconv.Atoi(p)
		if err != nil {
			s.countSubmission("invalid")
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad priority %q", p))
			return
		}
	}
	sum := sha256.Sum256(data)
	digest := hex.EncodeToString(sum[:])

	// Dedup fast path: an existing job for these bytes answers the
	// submission without the cache probe. This check is advisory — the
	// authoritative one runs again inside the queue's admission lock, so
	// two concurrent submissions of the same bytes admit exactly one job.
	if prev, ok := s.q.ByDigest(digest); ok && prev.State != StateFailed {
		s.countSubmission("deduped")
		writeJSON(w, http.StatusOK, submitResponse{Job: prev, Deduped: true})
		return
	}

	// Cache prehit: a warm FirmCache answers without spending a queue slot
	// or a worker. The probe is a pure disk read.
	if s.cfg.CacheDir != "" {
		if rep, hit, _ := firmres.CachedReport(data, s.analysisOptions(nil)...); hit {
			buf, err := json.Marshal(rep)
			if err == nil {
				job, deduped, err := s.q.EnqueueDone(digest, data, tenant, priority, buf)
				if err == nil {
					if deduped {
						s.countSubmission("deduped")
						writeJSON(w, http.StatusOK, submitResponse{Job: job, Deduped: true})
						return
					}
					s.countSubmission("cache_hit")
					s.aggMu.Lock()
					s.cacheStats.Hits++
					s.aggMu.Unlock()
					writeJSON(w, http.StatusCreated, submitResponse{Job: job})
					return
				}
			}
			// Fall through to the ordinary enqueue path on any error.
		}
	}

	job, deduped, err := s.q.Enqueue(digest, data, tenant, priority)
	switch {
	case errors.Is(err, errdefs.ErrQueueFull):
		s.countSubmission("queue_full")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, errdefs.ErrDraining):
		s.countSubmission("draining")
		writeError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		s.countSubmission("error")
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	if deduped {
		s.countSubmission("deduped")
		writeJSON(w, http.StatusOK, submitResponse{Job: job, Deduped: true})
		return
	}
	s.countSubmission("accepted")
	writeJSON(w, http.StatusAccepted, submitResponse{Job: job})
}

// jobResponse is a job plus its report once done.
type jobResponse struct {
	Job
	Report json.RawMessage `json:"report,omitempty"`
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, err := s.q.Get(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	resp := jobResponse{Job: job}
	if job.State == StateDone {
		if result, err := s.q.Result(job.ID); err == nil {
			resp.Report = result
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleJobs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Counts QueueCounts `json:"counts"`
		Jobs   []Job       `json:"jobs"`
	}{Counts: s.q.Counts(), Jobs: s.q.Jobs()})
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, err := s.q.Get(id)
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("streaming unsupported"))
		return
	}
	// Subscribe before the snapshot so no transition can fall between.
	ch, cancel := s.hub.subscribe(id)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	snapshot := job
	_, _ = w.Write(sseFrame(Event{Type: "state", Job: &snapshot}))
	flusher.Flush()
	if job.State.Terminal() {
		return
	}
	// The hub drops events for subscribers that cannot keep up, so a
	// missed terminal transition must not hang the stream: poll the
	// authoritative job state as a fallback exit condition.
	poll := time.NewTicker(ssePollInterval)
	defer poll.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-poll.C:
			cur, err := s.q.Get(id)
			if err != nil {
				return // pruned by retention while streaming
			}
			if cur.State.Terminal() {
				_, _ = w.Write(sseFrame(Event{Type: "state", Job: &cur}))
				flusher.Flush()
				return
			}
		case ev := <-ch:
			_, _ = w.Write(sseFrame(ev))
			flusher.Flush()
			if ev.Type == "state" && ev.Job != nil && ev.Job.State.Terminal() {
				return
			}
		}
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
