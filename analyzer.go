package firmres

// The analysis engine. Everything that depends only on the options — the
// configured pipeline, the span sinks, the options fingerprint and, with
// WithCache, the open cache handle — lives in an Analyzer, built once. A
// long-running service keeps one for the life of the process, so every
// call shares one cache handle and its single-flight; the package-level
// Analyze* functions each build a one-shot Analyzer, so there is one
// analysis path.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"firmres/internal/cache"
	"firmres/internal/core"
	"firmres/internal/errdefs"
	"firmres/internal/image"
	"firmres/internal/obs"
	"firmres/internal/parallel"
)

// Analyzer analyzes packed firmware images under one fixed set of
// options. It is safe for concurrent use and meant to be shared: with
// WithCache all calls go through one cache handle, so concurrent calls for
// the same image bytes compute the report once.
type Analyzer struct {
	pl    *core.Pipeline
	rec   *obs.Recorder // the options' trace and observers; nil when none
	cache *cache.Cache  // nil without WithCache
	fp    string        // options fingerprint, the options half of cache keys
}

// NewAnalyzer builds an Analyzer from the options. A configuration error —
// an unreadable model file, an unknown probe chaos mode, a cache directory
// that cannot be created, a cache size cap that is negative or has no
// cache — fails here, not on the first analysis. Sinks
// attached with WithTrace, WithObserver or WithProgress see the spans of
// every call. WithCacheStats does not apply; read CacheStats instead.
func NewAnalyzer(opts ...Option) (*Analyzer, error) {
	return newConfig(opts).analyzer(0)
}

// analyzer builds the Analyzer for a run of totalImages images, 0 when
// unknown; the count only sizes the progress reporter's ETA.
func (c *config) analyzer(totalImages int) (*Analyzer, error) {
	if c.err != nil {
		return nil, c.err
	}
	a := &Analyzer{pl: core.New(c.opts), rec: c.recorder(totalImages)}
	if c.cacheDir != "" {
		cc, err := cache.Open(c.cacheDir, cache.WithMaxBytes(c.cacheMaxBytes))
		if err != nil {
			return nil, fmt.Errorf("firmres: %w", err)
		}
		a.cache, a.fp = cc, c.opts.Fingerprint()
	}
	return a, nil
}

// finish folds a one-shot Analyzer's cache counters into the
// WithCacheStats accumulator and returns them (nil without WithCache).
func (c *config) finish(a *Analyzer) *CacheStats {
	if a.cache == nil {
		return nil
	}
	cs := a.CacheStats()
	if c.cacheStats != nil {
		c.cacheStats.add(cs)
	}
	return &cs
}

// Analyze analyzes one packed image under ctx, with the contract of
// AnalyzeImageContext. It also returns the report's canonical JSON, which
// is json.Marshal of the report and under WithCache byte for byte the cache
// entry's payload, so a caller that stores or serves the report never
// encodes it again; and whether the cache answered, from disk or from a
// concurrent call's computation. The JSON is appended to dst[:0], so a
// caller that passes the js of its previous call back as dst encodes into
// storage it already owns; a nil dst allocates. A non-nil o also receives
// this call's root and stage spans, as an Observer given to NewAnalyzer
// does.
func (a *Analyzer) Analyze(ctx context.Context, dst, data []byte, o Observer) (rep *Report, js []byte, hit bool, err error) {
	rep, js, hit, err = a.analyze(ctx, data, o, dst, true)
	if err != nil || js != nil {
		return rep, js, hit, err
	}
	if js, err = appendReport(dst, rep); err != nil {
		return nil, nil, false, fmt.Errorf("firmres: report encode: %w", err)
	}
	return rep, js, hit, nil
}

// encodeBufs is the process's free list of the buffers a cache miss of
// the batch functions encodes its entry into: at most
// parallel.FreeListCap, each at most parallel.MaxKeptBuf, kept across
// collections.
var encodeBufs parallel.FreeList[[]byte]

// appendReport appends rep's canonical JSON, the bytes json.Marshal
// renders, to dst[:0]: an Encoder with json.Marshal's HTML escaping, into
// dst's storage, less the newline Encode ends its value with.
func appendReport(dst []byte, rep *Report) ([]byte, error) {
	b := bytes.NewBuffer(dst[:0])
	if err := json.NewEncoder(b).Encode(rep); err != nil {
		return nil, err
	}
	js := b.Bytes()
	return js[:len(js)-1], nil
}

// analyze runs one image, through the cache when enabled, with one
// cache.Do for every caller: a warm hit is decoded straight from the
// cache's recycled read buffer, and only a miss passes through
// single-flight. A payload that does not decode is a corrupt entry, which
// Do's owner deletes and counts before the report is computed again.
// Analyze sets keepJSON and gets the report's bytes back as js, appended to
// dst[:0]; a miss encodes its entry there. The callers that keep only the
// report (the batch functions, AnalyzeImage*) pass no dst: a miss encodes
// into a buffer from encodeBufs, which goes back once Do returns.
func (a *Analyzer) analyze(ctx context.Context, data []byte, o Observer, dst []byte, keepJSON bool) (*Report, []byte, bool, error) {
	rec := a.rec
	if o != nil {
		rec = obs.Tee(rec, o)
	}
	if a.cache == nil {
		rep, err := a.analyzeFresh(ctx, rec, data)
		return rep, nil, false, err
	}
	key := cache.KeyOf(data, a.fp)
	sp := rec.StartSpan(nil, "cache", obs.String("key", key[:16]))
	defer sp.End()
	// The computing caller keeps its in-memory report (no round trip);
	// every hit decodes the serialized bytes — tests pin both renderings
	// identical.
	var (
		rep *Report
		js  []byte
		hit bool
		err error
	)
	enc := dst
	if !keepJSON {
		enc, _ = encodeBufs.Get()
		defer func() { parallel.PutBuf(&encodeBufs, enc) }()
	}
	use := func(payload []byte) (err error) {
		if rep, err = decodeReport(payload); err == nil && keepJSON {
			js = append(dst[:0], payload...)
		}
		return err
	}
	for {
		computed := false
		hit, err = a.cache.Do(key, use, func() ([]byte, bool, error) {
			computed = true
			fresh, err := a.analyzeFresh(ctx, rec, data)
			if err != nil {
				return nil, false, err
			}
			buf, err := appendReport(enc, fresh)
			if err != nil {
				return nil, false, fmt.Errorf("firmres: cache encode: %w", err)
			}
			enc, rep = buf, fresh
			if keepJSON {
				js = buf
			}
			return buf, cacheable(fresh), nil
		})
		// Do hands every waiter the computing call's error. The end of that
		// call's context is not this call's failure: while this call's own
		// context is live it goes round again, and computes if no other
		// call is in flight. Deterministic failures are still shared.
		if computed || ctx.Err() != nil ||
			!(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			break
		}
	}
	switch {
	case err != nil:
		sp.SetStatus("fatal: " + errdefs.Kind(err))
		return nil, nil, false, err
	case !hit:
		sp.SetStatus("miss")
	default:
		sp.SetStatus("hit")
		sp.AddString("device", rep.Device)
	}
	return rep, js, hit, nil
}

// cacheable reports whether rep is a pure function of the image bytes and
// the options, so the cache may store it: no deadline decided any part of
// it. A probe that ran out of attempts depends on the host's load; a
// recovered panic is deterministic. An analysis the caller's context cut
// short is fatal and never reaches here.
func cacheable(rep *Report) bool {
	return rep.Probe == nil || rep.Probe.Counts[ProbeFailed] == 0
}

// analyzeFresh is the uncached path: unpack and run the full pipeline
// inside the image span, a root span of rec. The span opens before the
// unpack, so a corrupt image ends one too, as fatal; the device and
// version are known, and added to it, only once the image unpacks.
func (a *Analyzer) analyzeFresh(ctx context.Context, rec *obs.Recorder, data []byte) (rep *Report, err error) {
	sp := rec.StartSpan(nil, "image")
	defer func() {
		switch {
		case err != nil:
			sp.SetStatus("fatal: " + errdefs.Kind(err))
		case rep.Partial():
			sp.SetStatus("partial")
		}
		sp.End()
	}()
	img, err := image.Unpack(data)
	if err != nil {
		return nil, fmt.Errorf("firmres: %w: %w", errdefs.ErrCorruptImage, err)
	}
	sp.AddAttr(obs.String("device", img.Device), obs.String("version", img.Version))
	res, err := a.pl.AnalyzeImageContext(obs.ContextWith(ctx, sp), img)
	defer res.Release()
	if err != nil {
		return nil, err
	}
	return reportOf(res), nil
}

// Cached returns the canonical JSON of data's report when the cache holds
// an entry for it that verifies and decodes as a report, without
// analyzing: the fast path for a service that answers a submission before
// spending a worker on it. The JSON is appended to dst, in dst's storage
// when the whole entry fits after dst's bytes, so a caller that passes a
// buffer it reuses reads into storage it already owns; otherwise, a nil
// dst included, into a new buffer of exactly dst's bytes and the entry.
// It is a read-only probe: it counts and deletes nothing, so an entry it
// cannot use stays for the next analysis to discard; like every read it
// refreshes a verified entry's recency. Without WithCache every probe
// misses.
func (a *Analyzer) Cached(dst, data []byte) ([]byte, bool) {
	if a.cache == nil {
		return nil, false
	}
	out, err := a.cache.GetInto(dst, cache.KeyOf(data, a.fp))
	if err != nil || out == nil {
		return nil, false
	}
	if _, err := decodeReport(out[len(dst):]); err != nil {
		return nil, false
	}
	return out, true
}

// CacheStats snapshots the counters of the Analyzer's cache handle since
// it was built: the hits and misses of analyses, evictions, and errors —
// the corrupt entries analyses discarded and the reports they failed to
// store. Cached probes count nothing. Zero without WithCache.
func (a *Analyzer) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	s := a.cache.Stats()
	return CacheStats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Errors: s.Errors}
}
