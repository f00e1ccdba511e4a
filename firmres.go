// Package firmres reconstructs device-cloud messages from IoT firmware
// images through static analysis, reproducing "FIRMRES: Exposing Broken
// Device-Cloud Access Control in IoT Through Static Firmware Analysis"
// (DSN 2024).
//
// Given a firmware image, the analysis pinpoints the device-cloud
// executable by finding asynchronous request handlers, traces message
// delivery callsites backwards to the sources of every message field,
// builds a Message Field Tree, recovers field semantics (Dev-Identifier,
// Dev-Secret, User-Cred, Bind-Token, Signature, Address), reconstructs the
// concrete messages in field order, and flags messages whose access-control
// primitives are missing or hard-coded.
//
// Quick start:
//
//	report, err := firmres.AnalyzeImage(firmwareBytes)
//	if err != nil { ... }
//	for _, msg := range report.Messages {
//	    fmt.Println(msg.Path, msg.Body, msg.Verdict)
//	}
package firmres

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"firmres/internal/core"
	"firmres/internal/errdefs"
	"firmres/internal/lint"
	"firmres/internal/nn"
	"firmres/internal/semantics"
)

// Field is one reconstructed message field.
type Field struct {
	Key        string  // recovered key text ("mac", "deviceId", "&sn=")
	Semantics  string  // primitive label (see Labels)
	Confidence float64 // classifier confidence
	Source     string  // source kind: const-string, nvram, config, env, file, dynamic, const-numeric
	SourceKey  string  // NVRAM/config/env key or file path
	Value      string  // rendered concrete value
}

// Message is one reconstructed device-cloud message.
type Message struct {
	Function  string // firmware function constructing the message
	Context   string // wrapper caller context ("" when constructed in place)
	Deliver   string // delivery function (SSL_write, mqtt_publish, ...)
	Format    string // json / query / mqtt / http / raw
	Topic     string // MQTT topic
	Path      string // HTTP path or query route
	Body      string // rendered message body
	Fields    []Field
	Discarded bool   // dropped by the LAN-address filter
	Flagged   bool   // marked by the message form check
	Verdict   string // ok / missing-primitives / hardcoded-secret / no-primitives
	Detail    string // human-readable finding
}

// Diagnostic is one lint-pass finding over the device-cloud executable: a
// security- or correctness-relevant code shape proven by the static
// analyses (constant propagation, dominators, def-use), reported against
// the function containing it.
type Diagnostic struct {
	Rule       string   // checker rule name ("hardcoded-secret", ...)
	Severity   string   // error / warning / info
	Executable string   // executable path the finding is in
	Function   string   // containing function
	Addr       uint64   // instruction address of the finding
	Message    string   // human-readable finding
	Evidence   []string `json:",omitempty"` // key=value proof fragments
}

// AnalysisError records one piece of work the pipeline skipped or
// abandoned while producing a partial Report: a corrupt executable, a
// timed-out stage, a recovered panic. Err wraps one of the package's
// sentinel errors, so errors.Is dispatch works; Detail carries the rendered
// cause for JSON output.
type AnalysisError struct {
	Stage  string `json:"stage"`          // pipeline stage ("identify-fields", ...)
	Path   string `json:"path,omitempty"` // executable involved, "" when stage-wide
	Kind   string `json:"kind"`           // taxonomy slug ("stage-timeout", ...)
	Detail string `json:"detail"`         // human-readable cause
	Err    error  `json:"-"`              // underlying cause for errors.Is / errors.As
}

// Error renders the failure.
func (e AnalysisError) Error() string {
	if e.Path != "" {
		return fmt.Sprintf("%s: %s: %s", e.Stage, e.Path, e.Detail)
	}
	return fmt.Sprintf("%s: %s", e.Stage, e.Detail)
}

// Unwrap exposes the cause.
func (e AnalysisError) Unwrap() error { return e.Err }

// Report is the analysis result for one firmware image.
type Report struct {
	Device        string
	Version       string
	Executable    string // identified device-cloud executable path
	Messages      []Message
	ClusterCounts map[string]int // "0.5"/"0.6"/"0.7" -> delimiter clusters; nil without sprintf
	// Metrics is the work-derived counter/histogram snapshot of the
	// analysis; populated only under WithMetrics. Keys are Prometheus-style
	// (`taint_mfts_total`, `facts_requests_total{artifact="cfg"}`,
	// histograms expanded to _count/_sum/_min/_max). Values depend only on
	// the work performed, so snapshots are identical at any WithWorkers
	// count.
	Metrics map[string]int64 `json:",omitempty"`
	// Diagnostics lists the lint-pass findings over the identified
	// executable, deduplicated and deterministically ordered. Populated only
	// when WithLint is set.
	Diagnostics []Diagnostic `json:",omitempty"`
	// Errors lists the work the pipeline skipped or abandoned while
	// degrading gracefully. Empty for a clean run; see Partial.
	Errors []AnalysisError `json:",omitempty"`
	// Probe is the §V replay report: every reconstructed message probed
	// against a simulated cloud and terminally classified. Populated only
	// under WithProbe; probe-less reports are byte-identical to builds
	// without the stage.
	Probe *ProbeReport `json:",omitempty"`
	// Recovery describes the symbol-free recovery pass over the identified
	// executable: function boundaries rebuilt, string constants rediscovered,
	// and extern identities bound by behavioral signature, each binding with
	// a confidence score. Populated only when the executable arrived
	// stripped (or WithStrippedMode forced the pass and it had work to do);
	// symbol-full reports stay byte-identical. When a stripped verdict
	// diverges from its symbol-full twin, the low-confidence bindings and
	// notes here are the explanation.
	Recovery *RecoveryReport `json:",omitempty"`
}

// RecoveryBinding records how one stripped import was identified — or why
// it was left unbound.
type RecoveryBinding struct {
	Import     int     `json:"import"`             // import-table index
	Name       string  `json:"name,omitempty"`     // bound extern name, "" when unbound
	Arity      int     `json:"arity"`              // observed callsite arity
	Sites      int     `json:"sites"`              // callsites observed
	Confidence float64 `json:"confidence"`         // 0..1, margin-normalized
	Evidence   string  `json:"evidence,omitempty"` // human-readable rationale
}

// RecoveryReport summarizes the symbol-free recovery pass (WithStrippedMode)
// over the identified executable.
type RecoveryReport struct {
	Binary           string            `json:"binary"`
	FuncsRecovered   int               `json:"funcs_recovered"`
	StringsRecovered int               `json:"strings_recovered"`
	ExternsTotal     int               `json:"externs_total"`
	ExternsBound     int               `json:"externs_bound"`
	Bindings         []RecoveryBinding `json:"bindings,omitempty"`
	// Confidence is the binding-confidence histogram, bucket label
	// ("0.8-1.0", ...) to count.
	Confidence map[string]int `json:"confidence,omitempty"`
	Notes      []string       `json:"notes,omitempty"`
}

// Partial reports whether the analysis degraded — some executables or
// stages were skipped and recorded in Errors.
func (r *Report) Partial() bool { return len(r.Errors) > 0 }

// Labels lists the semantic classes in canonical order.
func Labels() []string { return append([]string(nil), semantics.Labels...) }

// StageNames lists the pipeline stage names in execution order — the names
// of the per-stage spans an Observer sees under each "image" span.
func StageNames() []string {
	stages := core.Stages()
	out := make([]string, len(stages))
	for i, s := range stages {
		out[i] = s.String()
	}
	return out
}

// Sentinel errors of the analysis taxonomy. Every error the package
// returns, and every Report.Errors entry, wraps one of these; dispatch
// with errors.Is.
var (
	// ErrNoDeviceCloudExecutable is returned when no binary in the image
	// hosts an asynchronous request handler (script-only cloud agents).
	ErrNoDeviceCloudExecutable = errdefs.ErrNoDeviceCloudExecutable

	// ErrCorruptImage is returned when the firmware image fails structural
	// validation (bad magic, checksum mismatch, truncation).
	ErrCorruptImage = errdefs.ErrCorruptImage

	// ErrStageTimeout marks an analysis stage cancelled by its time budget
	// or by the caller's context. When the caller's context expired it
	// also wraps the context error (context.DeadlineExceeded or
	// context.Canceled).
	ErrStageTimeout = errdefs.ErrStageTimeout

	// ErrStagePanic marks an analysis stage aborted by a recovered panic.
	ErrStagePanic = errdefs.ErrStagePanic

	// ErrExecutableSkipped marks one candidate executable dropped during
	// pinpointing while the rest of the image kept analyzing.
	ErrExecutableSkipped = errdefs.ErrExecutableSkipped
)

// Option configures an analysis.
type Option func(*config)

type config struct {
	opts          core.Options
	err           error // configuration error reported by an Option
	workers       int
	trace         *Trace
	observers     []Observer
	progressW     io.Writer
	cacheDir      string
	cacheMaxBytes int64
	cacheStats    *CacheStats
}

func newConfig(opts []Option) *config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return &cfg
}

// WithKeywordClassifier selects the dictionary-based semantics classifier
// (the default).
func WithKeywordClassifier() Option {
	return func(c *config) { c.opts.Classifier = &semantics.KeywordClassifier{} }
}

// WithModelFile selects a trained TextCNN semantics classifier loaded from
// a model file produced by the training harness. A model file that cannot
// be opened or decoded fails the analysis with a configuration error.
func WithModelFile(path string) Option {
	return func(c *config) {
		f, err := os.Open(path)
		if err != nil {
			c.err = fmt.Errorf("firmres: model file: %w", err)
			return
		}
		defer f.Close()
		model, err := nn.Load(f)
		if err != nil {
			c.err = fmt.Errorf("firmres: model file %s: %w", path, err)
			return
		}
		c.opts.Classifier = &semantics.ModelClassifier{Model: model}
	}
}

// WithModel selects an in-memory trained TextCNN classifier.
func WithModel(model *nn.Model) Option {
	return func(c *config) { c.opts.Classifier = &semantics.ModelClassifier{Model: model} }
}

// WithMinHandlerScore sets the minimum string-parsing score a function-call
// sequence needs to count as a request handler (§IV-A).
func WithMinHandlerScore(s float64) Option {
	return func(c *config) { c.opts.MinScore = s }
}

// WithStageTimeout sets a wall-clock budget for each pipeline stage. A
// stage exceeding it — a taint blow-up, a pathological classifier — is
// abandoned and recorded in Report.Errors, and the remaining stages run on
// whatever was recovered. Zero (the default) means no per-stage budget.
func WithStageTimeout(d time.Duration) Option {
	return func(c *config) { c.opts.StageTimeout = d }
}

// WithWorkers bounds the analysis worker pools: batch functions
// (AnalyzeImages, AnalyzePaths, AnalyzeDir) analyze up to n images
// concurrently, and within each image the pipeline stages fan out on up to
// n goroutines. n <= 0 (the default) selects runtime.GOMAXPROCS; 1 runs
// everything sequentially. The analysis pools are compute-bound, so n is
// additionally clamped to runtime.GOMAXPROCS — extra goroutines cannot
// help and only add coordination cost (probe-stage replays, which block,
// are bounded separately by probe.Options.Probers). Reports are
// byte-identical at any worker count.
func WithWorkers(n int) Option {
	return func(c *config) {
		c.workers = n
		c.opts.Workers = n
	}
}

// WithLint enables the lint-pass stage: pluggable checkers run over every
// lifted function of the identified executable and report Diagnostics.
func WithLint() Option {
	return func(c *config) { c.opts.Lint = true }
}

// WithStrippedMode declares the corpus symbol-stripped: every candidate
// executable runs the symbol-free recovery pass (function-boundary
// recovery, string rediscovery, signature-based extern identification)
// before lifting, and the mode is folded into the analysis-cache
// fingerprint. Binaries that arrive without function symbols or with
// nameless imports are recovered automatically even without this option;
// on symbol-full binaries the pass is a no-op, so symbol-full reports are
// unchanged either way. The pass's outcome is reported in Report.Recovery.
func WithStrippedMode() Option {
	return func(c *config) { c.opts.Stripped = true }
}

// WithLintRules enables the lint-pass stage restricted to the named rules.
// An unknown rule name fails the analysis with a configuration error.
func WithLintRules(rules ...string) Option {
	return func(c *config) {
		c.opts.Lint = true
		c.opts.LintRules = rules
	}
}

// LintRules lists the registered lint rule names in sorted order.
func LintRules() []string { return lint.Rules() }

// WriteSARIF renders lint diagnostics as a SARIF 2.1.0 document (one run,
// driver "firmres-lint"), deterministically ordered.
func WriteSARIF(w io.Writer, diags []Diagnostic) error {
	conv := make([]lint.Diagnostic, 0, len(diags))
	for _, d := range diags {
		conv = append(conv, lint.Diagnostic{
			Rule:       d.Rule,
			Severity:   lint.ParseSeverity(d.Severity),
			Executable: d.Executable,
			Function:   d.Function,
			Addr:       uint32(d.Addr),
			Message:    d.Message,
			Evidence:   d.Evidence,
		})
	}
	return lint.WriteSARIF(w, conv)
}

// AnalyzeImage analyzes a packed firmware image.
func AnalyzeImage(data []byte, opts ...Option) (*Report, error) {
	return AnalyzeImageContext(context.Background(), data, opts...)
}

// AnalyzeImageContext analyzes a packed firmware image under ctx. The
// analysis degrades gracefully: corrupt executables and over-budget stages
// (see WithStageTimeout) are recorded in Report.Errors while the rest of
// the pipeline keeps running. The error return is reserved for fatal
// conditions — a structurally corrupt image (wrapping ErrCorruptImage), an
// expired or cancelled ctx (wrapping ErrStageTimeout and the context
// error), or an image with no device-cloud executable.
//
// With WithCache the report is served from the persistent result cache
// when the same image bytes were already analyzed under the same effective
// options and pipeline version; cached and fresh reports are identical.
func AnalyzeImageContext(ctx context.Context, data []byte, opts ...Option) (*Report, error) {
	cfg := newConfig(opts)
	cfg.observe(1)
	rn, err := cfg.runner()
	if err != nil {
		return nil, err
	}
	defer rn.finish()
	return rn.analyzeData(ctx, data)
}

// AnalyzeFile analyzes a firmware image file on disk.
func AnalyzeFile(path string, opts ...Option) (*Report, error) {
	return AnalyzeFileContext(context.Background(), path, opts...)
}

// AnalyzeFileContext analyzes a firmware image file on disk under ctx,
// with the same degradation contract as AnalyzeImageContext.
func AnalyzeFileContext(ctx context.Context, path string, opts ...Option) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("firmres: %w", err)
	}
	return AnalyzeImageContext(ctx, data, opts...)
}

func reportOf(res *core.Result) *Report {
	r := &Report{
		Device:     res.Device,
		Version:    res.Version,
		Executable: res.Executable,
		Metrics:    res.Metrics,
	}
	if res.Probe != nil {
		r.Probe = probeReportOf(res.Probe)
	}
	if res.Recovery != nil {
		rec := &RecoveryReport{
			Binary:           res.Recovery.Binary,
			FuncsRecovered:   res.Recovery.FuncsRecovered,
			StringsRecovered: res.Recovery.StringsRecovered,
			ExternsTotal:     res.Recovery.ExternsTotal,
			ExternsBound:     res.Recovery.ExternsBound,
			Confidence:       res.Recovery.Confidence,
			Notes:            res.Recovery.Notes,
		}
		for _, b := range res.Recovery.Bindings {
			rec.Bindings = append(rec.Bindings, RecoveryBinding{
				Import:     b.Import,
				Name:       b.Name,
				Arity:      b.Arity,
				Sites:      b.Sites,
				Confidence: b.Confidence,
				Evidence:   b.Evidence,
			})
		}
		r.Recovery = rec
	}
	if res.ClusterCounts != nil {
		r.ClusterCounts = map[string]int{}
		for thd, n := range res.ClusterCounts {
			r.ClusterCounts[fmt.Sprintf("%.1f", thd)] = n
		}
	}
	for _, ae := range res.Errors {
		r.Errors = append(r.Errors, AnalysisError{
			Stage:  ae.Stage,
			Path:   ae.Path,
			Kind:   ae.Kind(),
			Detail: ae.Err.Error(),
			Err:    ae.Err,
		})
	}
	// Degradation order depends on scheduling (which stage hit its budget
	// first); sort by stable keys so repeated runs render identically.
	sort.Slice(r.Errors, func(i, j int) bool {
		a, b := r.Errors[i], r.Errors[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		if a.Path != b.Path {
			return a.Path < b.Path
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Detail < b.Detail
	})
	for _, d := range res.Diagnostics {
		r.Diagnostics = append(r.Diagnostics, Diagnostic{
			Rule:       d.Rule,
			Severity:   d.Severity.String(),
			Executable: d.Executable,
			Function:   d.Function,
			Addr:       uint64(d.Addr),
			Message:    d.Message,
			Evidence:   d.Evidence,
		})
	}
	core.SortMessagesByFunction(res.Messages)
	for i := range res.Messages {
		mr := &res.Messages[i]
		msg := Message{
			Function:  mr.Message.Function,
			Context:   mr.Message.Context,
			Deliver:   mr.Message.Deliver,
			Format:    mr.Message.Format.String(),
			Topic:     mr.Message.Topic,
			Path:      mr.Message.Path,
			Body:      mr.Message.Body,
			Discarded: mr.Message.Discarded,
			Flagged:   mr.Flagged(),
			Verdict:   mr.Finding.Verdict.String(),
			Detail:    mr.Finding.Detail,
		}
		if mr.Message.Discarded {
			msg.Detail = mr.Message.Reason
			msg.Verdict = "discarded"
		}
		for _, f := range mr.Message.Fields {
			msg.Fields = append(msg.Fields, Field{
				Key:        f.Key,
				Semantics:  f.Semantics,
				Confidence: f.Confidence,
				Source:     f.Source.String(),
				SourceKey:  f.SourceKey,
				Value:      f.Value,
			})
		}
		r.Messages = append(r.Messages, msg)
	}
	return r
}
