// Package errdefs defines the structured error taxonomy of the analysis
// pipeline. Large-corpus runs see every failure shape real firmware can
// produce — truncated images, corrupt executables, taint blow-ups — and the
// orchestrator degrades gracefully instead of dying: recoverable problems
// are recorded as AnalysisError values on the report, fatal ones are
// returned wrapping one of the sentinels below so callers can dispatch with
// errors.Is.
package errdefs

import (
	"errors"
	"fmt"
)

// Sentinel errors of the pipeline taxonomy. Every error the pipeline
// surfaces wraps exactly one of these.
var (
	// ErrCorruptImage marks a firmware image that failed structural
	// validation (bad magic, checksum mismatch, truncated file table).
	ErrCorruptImage = errors.New("corrupt firmware image")

	// ErrCorruptBinary marks an executable inside an otherwise valid image
	// that could not be parsed or lifted.
	ErrCorruptBinary = errors.New("corrupt executable")

	// ErrStageTimeout marks an analysis stopped because the caller's
	// context ended. It wraps the context error, so errors.Is(err,
	// context.DeadlineExceeded) or errors.Is(err, context.Canceled) also
	// holds. The stage that was running commits nothing.
	ErrStageTimeout = errors.New("analysis stopped: the caller's context ended")

	// ErrStagePanic marks a pipeline stage aborted by a recovered panic.
	ErrStagePanic = errors.New("analysis stage panicked")

	// ErrExecutableSkipped marks one candidate executable dropped during
	// pinpointing (parse failure, lift failure, or per-executable panic)
	// while the rest of the image kept analyzing.
	ErrExecutableSkipped = errors.New("executable skipped")

	// ErrConfigSkipped marks a key=value configuration file dropped while
	// building the field-source resolver because it failed to parse; the
	// messages render without its values instead of failing the stage.
	ErrConfigSkipped = errors.New("config file skipped")

	// ErrNoDeviceCloudExecutable is reported when no binary in the image
	// contains an asynchronous request handler — script-only devices.
	ErrNoDeviceCloudExecutable = errors.New("no device-cloud executable identified")

	// ErrProbeExhausted marks a cloud probe abandoned after its retry
	// budget ran out.
	ErrProbeExhausted = errors.New("probe retries exhausted")

	// ErrBreakerOpen marks a probe abandoned because the caller's budget
	// expired while the per-cloud circuit breaker was open. The breaker
	// delays probes instead of failing them, so this surfaces only when
	// the wait outlives the probe's own deadline.
	ErrBreakerOpen = errors.New("probe circuit breaker open")

	// ErrNoCloudSpec marks a probe stage skipped because no simulated-cloud
	// spec is known for the device; the static analysis stands, only the
	// replay confirmation is missing.
	ErrNoCloudSpec = errors.New("no cloud spec for device")

	// ErrCloudUnavailable marks a probe stage abandoned because the
	// simulated cloud failed to start (listener exhaustion and the like).
	ErrCloudUnavailable = errors.New("simulated cloud unavailable")

	// ErrCacheCorrupt marks an on-disk analysis-cache entry that failed its
	// integrity check. The entry is discarded and the image re-analyzed —
	// a corrupt cache is a miss plus a note, never a failure.
	ErrCacheCorrupt = errors.New("corrupt cache entry")

	// ErrOverlappingSymbols marks an executable whose function symbol table
	// carries overlapping or duplicate address ranges. Earlier versions let
	// FuncAt return an arbitrary winner; the parser now rejects the table so
	// the ambiguity is surfaced instead of silently resolved.
	ErrOverlappingSymbols = errors.New("overlapping function symbols")

	// ErrQueueFull marks a job submission rejected because the service's
	// bounded job queue is at capacity — back-pressure, not failure. HTTP
	// front ends translate it to 429 with a Retry-After hint.
	ErrQueueFull = errors.New("job queue full")

	// ErrJobNotFound marks a job-ID lookup that matched nothing: never
	// submitted, or journaled under a different data directory.
	ErrJobNotFound = errors.New("job not found")

	// ErrRateLimited marks a submission rejected by a tenant's token
	// bucket. Like ErrQueueFull it is back-pressure: retry after the
	// bucket refills.
	ErrRateLimited = errors.New("tenant rate limit exceeded")

	// ErrDraining marks work refused because the service is shutting down
	// gracefully: intake is closed, inflight jobs are finishing, and
	// queued jobs stay journaled for the next boot.
	ErrDraining = errors.New("service draining")
)

// sentinels in display order, with their short kind slugs.
var sentinels = []struct {
	err  error
	kind string
}{
	{ErrCorruptImage, "corrupt-image"},
	{ErrCorruptBinary, "corrupt-binary"},
	{ErrStageTimeout, "stage-timeout"},
	{ErrStagePanic, "stage-panic"},
	{ErrExecutableSkipped, "executable-skipped"},
	{ErrConfigSkipped, "config-skipped"},
	{ErrNoDeviceCloudExecutable, "no-device-cloud-executable"},
	{ErrProbeExhausted, "probe-exhausted"},
	{ErrBreakerOpen, "breaker-open"},
	{ErrNoCloudSpec, "no-cloud-spec"},
	{ErrCloudUnavailable, "cloud-unavailable"},
	{ErrCacheCorrupt, "cache-corrupt"},
	{ErrOverlappingSymbols, "overlapping-symbols"},
	{ErrQueueFull, "queue-full"},
	{ErrJobNotFound, "job-not-found"},
	{ErrRateLimited, "rate-limited"},
	{ErrDraining, "draining"},
}

// transients lists the sentinels whose failures are schedule- or
// environment-dependent rather than properties of the input: an analysis
// whose context ended (a drained worker, a deadline on a loaded box), a
// simulated cloud that could not bind a listener, a cache entry that
// rotted on disk. Re-running the same work can succeed, so the service
// layer's retry policy dispatches on this set. Deterministic input
// failures (corrupt image, no device-cloud executable) are deliberately
// absent — retrying them burns a worker to reach the same verdict.
var transients = map[error]bool{
	ErrStageTimeout:     true,
	ErrStagePanic:       true,
	ErrCloudUnavailable: true,
	ErrBreakerOpen:      true,
	ErrProbeExhausted:   true,
	ErrCacheCorrupt:     true,
}

// Transient reports whether err wraps a taxonomy sentinel worth retrying:
// the failure came from timing, load, or storage rot, not from the input
// itself. Errors outside the taxonomy report false — an unknown failure is
// not assumed to heal on its own.
func Transient(err error) bool {
	for s := range transients {
		if errors.Is(err, s) {
			return true
		}
	}
	return false
}

// Kind maps an error to the short slug of the taxonomy sentinel it wraps
// ("stage-timeout", "corrupt-image", ...), or "error" for errors outside
// the taxonomy.
func Kind(err error) string {
	for _, s := range sentinels {
		if errors.Is(err, s.err) {
			return s.kind
		}
	}
	return "error"
}

// Kinds lists every slug Kind returns, "error" last.
func Kinds() []string {
	out := make([]string, 0, len(sentinels)+1)
	for _, s := range sentinels {
		out = append(out, s.kind)
	}
	return append(out, "error")
}

// Sentinel is the inverse of Kind: it maps a taxonomy slug back to its
// sentinel error, or nil for unknown slugs. Deserialized reports (the
// analysis cache, JSON round trips) use it to rehydrate errors.Is dispatch
// from the persisted kind.
func Sentinel(kind string) error {
	for _, s := range sentinels {
		if s.kind == kind {
			return s.err
		}
	}
	return nil
}

// AnalysisError records one piece of work the pipeline skipped while
// producing a partial result.
type AnalysisError struct {
	Stage string // pipeline stage the failure occurred in
	Path  string // executable or file involved, "" when stage-wide
	Err   error  // underlying cause, wrapping a taxonomy sentinel
}

// Error renders the failure with its stage and subject.
func (e *AnalysisError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s: %s: %v", e.Stage, e.Path, e.Err)
	}
	return fmt.Sprintf("%s: %v", e.Stage, e.Err)
}

// Unwrap exposes the cause for errors.Is / errors.As.
func (e *AnalysisError) Unwrap() error { return e.Err }

// Kind returns the taxonomy slug of the underlying cause.
func (e *AnalysisError) Kind() string { return Kind(e.Err) }
