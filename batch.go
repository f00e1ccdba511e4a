package firmres

// Corpus-level batch analysis: the §V-E evaluation shape. A batch analyzes
// many firmware images on a bounded worker pool (WithWorkers) and returns
// per-image reports in input order plus an aggregate summary, so a
// 22-device corpus — or a production-scale crawl — is one call instead of
// one process per image.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"firmres/internal/errdefs"
	"firmres/internal/obs"
	"firmres/internal/parallel"
)

// ImageResult is the outcome for one image of a batch. Exactly one of
// Report and Error is meaningful: a fatal per-image failure (corrupt image,
// no device-cloud executable, configuration error) is recorded here instead
// of aborting the batch.
type ImageResult struct {
	// Path is the source file for AnalyzePaths/AnalyzeDir batches, or
	// "image[i]" for in-memory AnalyzeImages input.
	Path   string  `json:"path"`
	Report *Report `json:"report,omitempty"`
	// Kind is the taxonomy slug of a fatal failure ("corrupt-image",
	// "no-device-cloud-executable", ...), "" on success.
	Kind string `json:"kind,omitempty"`
	// Error is the rendered fatal failure, "" on success.
	Error string `json:"error,omitempty"`
	// Err is the underlying fatal failure for errors.Is / errors.As.
	Err error `json:"-"`
}

// BatchSummary aggregates a batch run. All counts are derived from the
// per-image results, so the summary is deterministic at any worker count.
type BatchSummary struct {
	Images      int // images submitted
	Reports     int // images that produced a report
	Failed      int // images that failed fatally
	Partial     int // reports that degraded (Report.Partial)
	Messages    int // reconstructed messages across all reports
	Flagged     int // messages the form check marked
	Diagnostics int // lint findings across all reports
	// Metrics merges every report's WithMetrics snapshot (counters and
	// histogram components sum per key). Nil without WithMetrics.
	Metrics map[string]int64 `json:",omitempty"`
	// Cache counts the batch's persistent-cache activity (hits, misses,
	// evictions, corrupt entries discarded). Nil without WithCache.
	Cache *CacheStats `json:",omitempty"`
	// Probe rolls up the probe-replay stage across every report that ran
	// it. Nil without WithProbe.
	Probe *ProbeSummary `json:",omitempty"`
}

// ProbeSummary aggregates the probe-replay stage over a batch.
type ProbeSummary struct {
	Probed     int // messages replayed across all reports
	Granted    int // attacker variant granted (exploitable)
	Denied     int // attacker variant refused
	Invalid    int // messages the cloud did not understand
	Failed     int // probes that failed after retries
	Vulnerable int // messages confirmed exploitable
}

// BatchReport is the outcome of one corpus batch: per-image results in
// input order plus the aggregate summary.
type BatchReport struct {
	Images  []ImageResult
	Summary BatchSummary
}

// AnalyzeImages analyzes a batch of packed firmware images under ctx on a
// WithWorkers-bounded pool, returning per-image results in input order. A
// fatal failure of one image is recorded in its ImageResult and does not
// stop the batch; the error return is reserved for an expired or cancelled
// ctx (wrapping ErrStageTimeout and the context error).
func AnalyzeImages(ctx context.Context, imgs [][]byte, opts ...Option) (*BatchReport, error) {
	cfg := newConfig(opts)
	cfg.observe(len(imgs))
	rn, err := cfg.runner()
	if err != nil {
		return nil, err
	}
	results := make([]ImageResult, len(imgs))
	parallel.ForEach(ctx, parallel.CPUWorkers(cfg.workers), len(imgs), func(i int) {
		results[i] = analyzeBatchImage(ctx, rn, fmt.Sprintf("image[%d]", i), imgs[i])
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("firmres: %w: %w", errdefs.ErrStageTimeout, err)
	}
	return batchReport(results, rn.finish()), nil
}

// AnalyzePaths analyzes firmware image files on disk as one batch, with the
// same contract as AnalyzeImages; unreadable files fail per-image.
func AnalyzePaths(ctx context.Context, paths []string, opts ...Option) (*BatchReport, error) {
	cfg := newConfig(opts)
	cfg.observe(len(paths))
	rn, err := cfg.runner()
	if err != nil {
		return nil, err
	}
	results := make([]ImageResult, len(paths))
	parallel.ForEach(ctx, parallel.CPUWorkers(cfg.workers), len(paths), func(i int) {
		data, err := os.ReadFile(paths[i])
		if err != nil {
			results[i] = ImageResult{
				Path: paths[i], Kind: errdefs.Kind(err),
				Error: err.Error(), Err: err,
			}
			return
		}
		results[i] = analyzeBatchImage(ctx, rn, paths[i], data)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("firmres: %w: %w", errdefs.ErrStageTimeout, err)
	}
	return batchReport(results, rn.finish()), nil
}

// AnalyzeDir analyzes every regular file directly under dir (sorted by
// name, hidden files skipped) as one batch, with the same contract as
// AnalyzePaths.
func AnalyzeDir(ctx context.Context, dir string, opts ...Option) (*BatchReport, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("firmres: %w", err)
	}
	var paths []string
	for _, e := range entries {
		if e.Type().IsRegular() && e.Name()[0] != '.' {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return AnalyzePaths(ctx, paths, opts...)
}

// analyzeBatchImage runs the shared runner over one packed image — through
// the persistent cache when enabled — folding fatal failures into the
// result slot.
func analyzeBatchImage(ctx context.Context, rn *runner, path string, data []byte) ImageResult {
	out := ImageResult{Path: path}
	rep, err := rn.analyzeData(ctx, data)
	if err != nil {
		out.Kind, out.Error, out.Err = errdefs.Kind(err), err.Error(), err
		return out
	}
	out.Report = rep
	return out
}

// batchReport assembles the aggregate summary over ordered results.
func batchReport(results []ImageResult, cacheStats *CacheStats) *BatchReport {
	br := &BatchReport{Images: results}
	s := &br.Summary
	s.Images = len(results)
	s.Cache = cacheStats
	for i := range results {
		r := results[i].Report
		if r == nil {
			s.Failed++
			continue
		}
		s.Reports++
		if r.Partial() {
			s.Partial++
		}
		s.Messages += len(r.Messages)
		for _, m := range r.Messages {
			if m.Flagged {
				s.Flagged++
			}
		}
		s.Diagnostics += len(r.Diagnostics)
		if p := r.Probe; p != nil {
			if s.Probe == nil {
				s.Probe = &ProbeSummary{}
			}
			s.Probe.Probed += p.Probed
			s.Probe.Granted += p.Counts[ProbeGranted]
			s.Probe.Denied += p.Counts[ProbeDenied]
			s.Probe.Invalid += p.Counts[ProbeInvalid]
			s.Probe.Failed += p.Counts[ProbeFailed]
			s.Probe.Vulnerable += p.Vulnerable
		}
		s.Metrics = obs.MergeSnapshots(s.Metrics, r.Metrics)
	}
	return br
}
