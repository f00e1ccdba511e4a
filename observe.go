package firmres

// Run observability: hierarchical traces, live span observers, progress
// reporting, and metric snapshots. All of it is opt-in — an analysis
// without these options runs the exact same code paths and produces
// byte-identical reports.

import (
	"io"

	"firmres/internal/obs"
)

// SpanEvent is one span notification delivered to an Observer: the
// pipeline's own span record, handed over as it is. Parent is 0 for the
// per-image root spans; End is zero in SpanStart notifications; Status is
// "" for ok, else "partial", "panic", "skipped", "fatal: <kind>", ...
// Attributes (device, version, path, fn, ...) are read with Attr(key),
// which returns "" for one the span does not carry, and Duration is the
// span's wall-clock extent (zero before End).
type SpanEvent = obs.SpanData

// Observer is a sink notified as analysis spans start and end — the hook
// for custom dashboards or log streams. It sees the stage-level tree: the
// root spans, one "image" span per analyzed image (opened before the image
// unpacks, so its "device" and "version" attributes arrive with its end)
// and one "cache" span per lookup under WithCache, and a child of the
// image span per stage that ran. The inner-loop spans below the stages are
// built only for a Trace. Implementations must be safe for concurrent
// calls: spans start and end on many goroutines at once.
type Observer = obs.Observer

// Trace collects the hierarchical spans of an analysis run: one root span
// per image, a child span per pipeline stage, and grandchildren for the hot
// inner loops (per-candidate pinpointing, per-site taint, per-message
// classification, per-function lint). Pass it with WithTrace, run the
// analysis, then export. A Trace is the only sink the inner-loop spans
// are built for; Observers see the tree down to the stages.
//
// A Trace may span several Analyze calls and Analyzers: their images all
// land in it, while the WithObserver / WithProgress sinks of each call see
// only that call's spans.
type Trace struct {
	rec *obs.Recorder
}

// NewTrace builds an empty trace recorder.
func NewTrace() *Trace { return &Trace{rec: obs.NewRecorder()} }

// WriteTree renders the recorded spans as an indented human-readable tree
// with durations, attributes, and statuses.
func (t *Trace) WriteTree(w io.Writer) error {
	return obs.WriteTree(w, t.rec.Spans())
}

// WriteChromeTrace renders the recorded spans in Chrome trace_event JSON,
// loadable in chrome://tracing and https://ui.perfetto.dev.
func (t *Trace) WriteChromeTrace(w io.Writer) error {
	return obs.WriteChromeTrace(w, t.rec.Spans())
}

// WithTrace records the analysis's span tree into t.
func WithTrace(t *Trace) Option {
	return func(c *config) {
		if t != nil {
			c.trace = t
		}
	}
}

// WithObserver streams the start and end events of the root and stage
// spans to o as the analysis runs (see Observer).
func WithObserver(o Observer) Option {
	return func(c *config) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}
}

// WithProgress prints a one-line progress update to w each time an image
// finishes: count, percentage, per-image duration, ETA, and the stages the
// in-flight images are in. Meant for batch runs on a terminal's stderr.
func WithProgress(w io.Writer) Option {
	return func(c *config) {
		if w != nil {
			c.progressW = w
		}
	}
}

// WithMetrics collects work-derived counters and histograms during the
// analysis and snapshots them into Report.Metrics: facts-store hits and
// misses per artifact, taint steps and frontier sizes, MFTs built, fields
// per semantic label, lint findings per rule, degraded stages by error
// kind. Every value derives from the work performed — never from timing or
// scheduling — so snapshots are identical at any WithWorkers count.
func WithMetrics() Option {
	return func(c *config) { c.opts.Metrics = true }
}

// WriteMetrics renders a metrics snapshot (Report.Metrics or
// BatchReport.Summary.Metrics) in Prometheus text exposition format, keys
// sorted, each prefixed "firmres_".
func WriteMetrics(w io.Writer, snapshot map[string]int64) error {
	return obs.WritePrometheus(w, snapshot)
}

// MergeMetrics folds snapshot src into dst (allocating dst when nil) and
// returns it: counters and histogram _count/_sum components add, histogram
// _min/_max components combine as the running extremes. Use it to
// aggregate Report.Metrics across separate Analyze calls; batch runs get
// the same aggregation in BatchReport.Summary.Metrics.
func MergeMetrics(dst, src map[string]int64) map[string]int64 {
	return obs.MergeSnapshots(dst, src)
}

// recorder assembles the span recorder the options ask for: the trace's,
// teed to the observers and the progress reporter when there are any; an
// observer-only recorder, which keeps no spans and starts none below the
// stages, when there is no trace; nil when there is no sink. totalImages
// sizes the progress reporter's ETA, which c keeps for the images that
// open no span.
func (c *config) recorder(totalImages int) *obs.Recorder {
	var up *obs.Recorder
	if c.trace != nil {
		up = c.trace.rec
	}
	sinks := c.observers
	if c.progressW != nil {
		c.progress = obs.NewProgress(c.progressW, totalImages)
		sinks = append(sinks, c.progress)
	}
	if len(sinks) == 0 {
		return up
	}
	return obs.Tee(up, sinks...)
}
