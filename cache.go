package firmres

// Persistent analysis caching: FIRMRES-style corpus runs re-scan the same
// firmware over and over (new checkers, re-crawls, CI), and a full analysis
// is pure — the report depends only on the image bytes and the options. So
// a content-addressed on-disk cache turns every warm re-run into a disk
// read. The key is SHA-256(image) ⊕ core.Options.Fingerprint() (which
// embeds the pipeline version stamp and excludes worker count — reports are
// worker-count-invariant); the value is the serialized Report. Failures are
// never cached — a caller context that ended is one — nor is a report a
// deadline decided (a probe that failed after retries): it depends on the
// host's load, not only on the key. Corrupt entries degrade to misses, and
// concurrent workers single-flight so one image is never computed twice in
// a run; a call whose context is live does not inherit the cancellation of
// the call that computed for it. A warm hit costs one verified read and one
// decode: every analysis makes one cache.Do, which lends the entry to the
// decoder from a recycled read buffer and goes through single-flight only
// on a miss; Analyzer.Analyze, which hands the report bytes on, copies the
// payload it decoded. An entry that fails its checksum or does not decode
// is deleted only by the single-flight owner of its key, which then
// computes it again; Analyzer.Cached, a read-only probe, appends to the
// buffer its caller passes and deletes nothing. Entries are written with
// json.Marshal and decoded by the one-pass decoder in report_decode.go,
// which reads exactly what json.Marshal writes and copies every string, so
// a decoded report outlives the buffer it came from.

import (
	"fmt"

	"firmres/internal/cache"
	"firmres/internal/errdefs"
)

// CacheStats counts one run's persistent-cache activity. Batch runs report
// it in BatchSummary.Cache; accumulate across separate Analyze calls with
// WithCacheStats.
type CacheStats struct {
	Hits      int64 // reports served from disk or a shared in-flight compute
	Misses    int64 // reports that had to be computed
	Evictions int64 // entries evicted by the size cap
	Errors    int64 // corrupt entries discarded (each also a miss) and reports that failed to store
}

func (s *CacheStats) add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Evictions += o.Evictions
	s.Errors += o.Errors
}

// Snapshot renders the stats as a metrics snapshot (Prometheus-style keys),
// mergeable into Report.Metrics aggregates with MergeMetrics and writable
// with WriteMetrics.
func (s CacheStats) Snapshot() map[string]int64 {
	return map[string]int64{
		"cache_hits_total":      s.Hits,
		"cache_misses_total":    s.Misses,
		"cache_evictions_total": s.Evictions,
		"cache_errors_total":    s.Errors,
	}
}

// WithCache serves analyses from a persistent content-addressed result
// cache rooted at dir (created if missing) and stores every freshly
// computed report back into it. Cached and fresh reports are
// byte-identical; any change to the analysis options or to the pipeline
// version forces a recompute, and a corrupt entry is discarded and
// recomputed, never trusted. Fatal failures (corrupt image, no device-cloud
// executable, a cancelled or expired context) are not cached, and neither
// is a report a deadline decided: one carrying a probe outcome classified
// probe-failed. Such a report is returned as usual but counts as a miss,
// so the next call with the same bytes analyzes again.
func WithCache(dir string) Option {
	return func(c *config) { c.cacheDir = dir }
}

// WithCacheMaxBytes caps the cache directory's total size; once a stored
// report pushes it past n bytes, least-recently-used entries are evicted.
// 0 (the default) means unbounded. A negative n, or a nonzero one without
// WithCache, is a configuration error.
func WithCacheMaxBytes(n int64) Option {
	return func(c *config) { c.cacheMaxBytes = n }
}

// WithCacheStats accumulates the run's cache counters into st (added to,
// not overwritten, so one accumulator can span several Analyze calls). It
// applies to the package-level functions; an Analyzer reports its
// counters through its CacheStats method instead.
func WithCacheStats(st *CacheStats) Option {
	return func(c *config) { c.cacheStats = st }
}

// ClearCache removes every cache entry under dir. Other files in the
// directory are left alone.
func ClearCache(dir string) error {
	cc, err := cache.Open(dir)
	if err != nil {
		return fmt.Errorf("firmres: %w", err)
	}
	return cc.Clear()
}

// cachedErr rehydrates a deserialized AnalysisError's cause: it renders the
// persisted detail and unwraps to the taxonomy sentinel the persisted kind
// names, so errors.Is dispatch works on cached reports too.
type cachedErr struct {
	sentinel error
	detail   string
}

func (e cachedErr) Error() string { return e.detail }
func (e cachedErr) Unwrap() error { return e.sentinel }

// decodeReport decodes a cache payload, json.Marshal of a Report, with the
// one-pass decoder in report_decode.go, and rehydrates the error causes
// JSON cannot carry. The report owns all of its bytes, so data may be a
// buffer the cache lends and reuses.
func decodeReport(data []byte) (*Report, error) {
	var r Report
	if err := unmarshalReport(data, &r); err != nil {
		return nil, fmt.Errorf("firmres: cache decode: %w", err)
	}
	for i := range r.Errors {
		e := &r.Errors[i]
		if e.Err == nil {
			e.Err = cachedErr{sentinel: errdefs.Sentinel(e.Kind), detail: e.Detail}
		}
	}
	return &r, nil
}
