// Package core orchestrates the FIRMRES pipeline (paper Fig. 3): pinpoint
// the device-cloud executable, identify message fields by backward taint,
// recover field semantics over code slices, concatenate fields into
// messages, and check message forms. Each stage runs inside an obs span
// named after it (the §V-E breakdown); spans are the pipeline's only
// wall-clock record, so a Result depends on the image and options alone.
package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"firmres/internal/cloud/probe"
	"firmres/internal/errdefs"
	"firmres/internal/facts"
	"firmres/internal/fields"
	"firmres/internal/formcheck"
	"firmres/internal/identify"
	"firmres/internal/image"
	"firmres/internal/lint"
	"firmres/internal/mft"
	"firmres/internal/nvram"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/strip"
	"firmres/internal/taint"
)

// PipelineVersion stamps the analysis logic for cache keying. Every cached
// report embeds it through Options.Fingerprint, so bumping it invalidates
// the whole persistent cache at once. Bump it whenever any stage's logic
// changes in a way that can alter a Report — new checkers, taint channel
// changes, classifier dictionary edits, message rendering tweaks.
const PipelineVersion = "v7"

// Stage identifies one pipeline stage; its String names the stage span.
type Stage int

// Pipeline stages, in execution order (§V-E names).
const (
	StagePinpoint  Stage = iota // pinpointing device-cloud executables
	StageFields                 // identifying message fields (taint)
	StageSemantics              // recovering field semantics
	StageConcat                 // concatenating message fields
	StageFormCheck              // detecting incorrect forms
	StageLint                   // lint passes over the lifted executable
	StageProbe                  // replaying messages against a simulated cloud (§V)
	numStages
)

// Stages lists every pipeline stage in execution order.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StagePinpoint:
		return "pinpoint-executables"
	case StageFields:
		return "identify-fields"
	case StageSemantics:
		return "recover-semantics"
	case StageConcat:
		return "concatenate-fields"
	case StageFormCheck:
		return "check-forms"
	case StageLint:
		return "lint-passes"
	case StageProbe:
		return "probe-replay"
	default:
		return fmt.Sprintf("stage?%d", int(s))
	}
}

// MessageResult bundles everything the pipeline derives for one message.
type MessageResult struct {
	MFT     *taint.MFT
	Tree    *mft.Tree
	Slices  []slices.Slice
	Infos   []fields.SliceInfo
	Message *fields.Message
	Finding formcheck.Finding
}

// Flagged reports whether the form check marked the message. Discarded
// messages (LAN filter) are never checked, hence never flagged.
func (m *MessageResult) Flagged() bool {
	return m.Finding.Verdict != 0 && m.Finding.Verdict.Flawed()
}

// Result is the full analysis outcome for one firmware image.
type Result struct {
	Device     string
	Version    string
	Executable string // path of the identified device-cloud executable
	Handlers   []identify.Handler
	Messages   []MessageResult
	// ClusterCounts maps similarity thresholds (0.5/0.6/0.7) to the number
	// of delimiter clusters (§IV-C); nil when the executable never uses
	// formatted-output assembly (the "-" rows of Table II).
	ClusterCounts map[float64]int
	// Diagnostics holds the lint-pass findings over the identified
	// executable; populated only when Options.Lint is set.
	Diagnostics []lint.Diagnostic
	// Probe is the §V replay report — every reconstructed message probed
	// against a simulated cloud and terminally classified; populated only
	// when Options.Probe is set and a cloud spec was resolved.
	Probe *probe.Report
	// Recovery records the symbol-free recovery pass over the identified
	// executable — functions and strings rebuilt, extern bindings with
	// confidence — populated only when the executable arrived missing a
	// symbol layer (strip.Needed) and the pass recovered something. Nil
	// for symbol-full runs, keeping their reports byte-identical.
	Recovery *strip.Stats
	// Metrics is the snapshot of the work-derived counters and histograms
	// one analysis collected; populated only when Options.Metrics is set.
	// Every value derives from the work performed, never from scheduling,
	// so the snapshot is identical at any Workers count.
	Metrics map[string]int64
	// Errors records the work the pipeline skipped while degrading
	// gracefully: skipped executables and config files, recovered panics.
	// Empty for a clean run.
	Errors []errdefs.AnalysisError

	set *facts.Program // the executable's set: lifted program and facts, handed back by Release
}

// Release hands the executable's set — its lifted program, the storage of
// its facts artifacts, the semantics stage's enrichment and every message
// tree — back to the process's free list, which recycles it for later
// analyses. Call it once the Result has been rendered: the Messages list
// and every message's MFT, Tree, Slices, Infos and Message, with its
// Fields, are carved from the set, so afterwards they and Handlers refer
// to storage another analysis may overwrite. Every stage has returned by
// the time the analysis does, so nothing else reads the set and Release
// always recycles it, after a fatal error too. It is safe to call more
// than once, and a Result that is never released just leaves its set to
// the garbage collector.
func (r *Result) Release() {
	r.set.Release()
	r.set = nil
}

// Partial reports whether the analysis degraded: some work was skipped and
// recorded in Errors.
func (r *Result) Partial() bool { return len(r.Errors) > 0 }

// FlaggedMessages returns the messages the form check marked.
func (r *Result) FlaggedMessages() []*MessageResult {
	var out []*MessageResult
	for i := range r.Messages {
		if r.Messages[i].Flagged() {
			out = append(out, &r.Messages[i])
		}
	}
	return out
}

// Options configures the pipeline.
type Options struct {
	// Classifier labels field slices; default: KeywordClassifier. It must
	// be safe for concurrent use when Workers != 1 (both bundled
	// classifiers are).
	Classifier semantics.Classifier
	// Workers bounds the intra-stage worker pools: candidate executables
	// are lifted, delivery sites traced, and per-message work (simplify,
	// classify, concatenate, form-check) processed on up to Workers
	// goroutines. Zero or negative selects runtime.GOMAXPROCS; 1 runs every
	// stage sequentially. Results are collected into input-indexed slots,
	// so the output is byte-identical at any worker count.
	Workers int
	// Lint enables the lint-pass stage over the identified executable.
	Lint bool
	// LintRules restricts the lint stage to the named rules; empty means
	// every registered checker.
	LintRules []string
	// Metrics enables the work-derived counter/histogram snapshot in
	// Result.Metrics (see there for the determinism contract).
	Metrics bool
	// Probe enables the probe-replay stage: every reconstructed message is
	// replayed against a simulated cloud built from the device's spec and
	// classified for exploitability. Nil (the default) skips the stage
	// entirely, leaving the report byte-identical to a probe-less build.
	Probe *probe.Options
}

func (o Options) withDefaults() Options {
	if o.Classifier == nil {
		o.Classifier = &semantics.KeywordClassifier{}
	}
	return o
}

// Fingerprint canonically renders every report-affecting option plus the
// PipelineVersion stamp — the options half of the analysis-cache key. Two
// Options values with equal fingerprints produce byte-identical reports for
// the same image; two with different fingerprints must never share a cache
// entry. Defaults are applied first, so the zero value and an explicitly
// spelled-out default configuration fingerprint identically.
//
// Deliberately excluded: Workers (reports are worker-count-invariant).
func (o Options) Fingerprint() string {
	o = o.withDefaults()
	var b strings.Builder
	fmt.Fprintf(&b, "pipeline=%s;", PipelineVersion)
	fmt.Fprintf(&b, "classifier=%T;", o.Classifier)
	if fp, ok := o.Classifier.(interface{ Fingerprint() string }); ok {
		fmt.Fprintf(&b, "classifier-fp=%s;", fp.Fingerprint())
	}
	fmt.Fprintf(&b, "lint=%t;", o.Lint)
	if len(o.LintRules) > 0 {
		rules := append([]string(nil), o.LintRules...)
		sort.Strings(rules)
		fmt.Fprintf(&b, "lint-rules=%v;", rules)
	}
	fmt.Fprintf(&b, "metrics=%t;", o.Metrics)
	if o.Probe != nil {
		// Folded in only when the stage runs, so probe-less cache keys are
		// unchanged across the probe stage's introduction.
		fmt.Fprintf(&b, "probe=%s;", o.Probe.Fingerprint())
	}
	return b.String()
}

// Pipeline runs the FIRMRES analysis. It lifts every executable into a
// set from the process's free list (facts.Lift) and hands sets back as it
// is done with them: pinpoint's losers at once, the winner when its
// Result is released.
type Pipeline struct {
	opts Options
}

// New builds a pipeline.
func New(opts Options) *Pipeline {
	return &Pipeline{opts: opts.withDefaults()}
}

// ErrNoDeviceCloudExecutable is reported (wrapped) when no binary in the
// image contains an asynchronous request handler — script-only devices.
// It aliases the errdefs taxonomy sentinel.
var ErrNoDeviceCloudExecutable = errdefs.ErrNoDeviceCloudExecutable

// AnalyzeImage runs the full pipeline over one unpacked firmware image with
// no deadline. See AnalyzeImageContext for cancellable analysis.
func (p *Pipeline) AnalyzeImage(img *image.Image) (*Result, error) {
	return p.AnalyzeImageContext(context.Background(), img)
}

// clusterThresholds are the paper's delimiter-clustering similarity
// thresholds (§IV-C). They are fixed: a result with cluster counts carries
// the count at all three, so comparing thresholds takes no second run.
var clusterThresholds = []float64{0.5, 0.6, 0.7}

// clusterCounts runs the §IV-C delimiter clustering over the executable's
// format-string substrings at each of clusterThresholds, scoring each pair
// of substrings once. Executables that
// never use formatted-output assembly yield nil (the "-" rows of Table II);
// FormatSubstrings reports that in its collection pass, so the trees are
// walked exactly once.
func clusterCounts(mfts []*taint.MFT) map[float64]int {
	subs, usesSprintf := slices.FormatSubstrings(mfts)
	if !usesSprintf {
		return nil
	}
	counts := slices.ClusterCounts(subs, clusterThresholds)
	out := make(map[float64]int, len(clusterThresholds))
	for i, thd := range clusterThresholds {
		out[thd] = counts[i]
	}
	return out
}

// ResolverFromImageNotes builds the field-source resolver for message
// rendering — NVRAM values from the key=value files whose path names nvram
// (/etc/nvram.defaults), configuration values from every other /etc
// key=value file, and file contents from the image tree — plus a
// degradation note for every config-shaped file that failed nvram.Parse.
// Files with no key=value line at all (certificates, hosts, shell
// fragments) are not configuration stores and are skipped without a note;
// a file that does carry key=value lines but fails to parse loses real
// resolver values, and the analysis must say so instead of silently
// rendering fields as dynamic.
func ResolverFromImageNotes(img *image.Image) (*fields.MapResolver, []errdefs.AnalysisError) {
	r := &fields.MapResolver{
		NVRAM:  map[string]string{},
		Config: map[string]string{},
		Env:    map[string]string{},
		Files:  map[string]string{},
	}
	var notes []errdefs.AnalysisError
	for _, f := range img.ConfigFiles() {
		store, err := nvram.Parse(f.Data)
		if err != nil {
			if configShaped(f.Data) {
				notes = append(notes, errdefs.AnalysisError{
					Stage: StageConcat.String(), Path: f.Path,
					Err: fmt.Errorf("%w: %w", errdefs.ErrConfigSkipped, err),
				})
			}
			continue // non key=value configs (certificates, hosts, ...)
		}
		target := r.Config
		if strings.Contains(f.Path, "nvram") {
			target = r.NVRAM
		}
		for _, k := range store.Keys() {
			v, _ := store.Get(k)
			target[k] = v
		}
	}
	for i := range img.Files {
		f := &img.Files[i]
		if !f.IsExec() {
			r.Files[f.Path] = string(f.Data)
		}
	}
	return r, notes
}

// configShaped reports whether a file looks like a key=value store: at
// least one non-comment line with a key before an '=' separator.
func configShaped(data []byte) bool {
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.IndexByte(line, '='); i > 0 {
			return true
		}
	}
	return false
}

// SortMessagesByFunction orders results by constructor name for
// deterministic reporting.
func SortMessagesByFunction(msgs []MessageResult) {
	sort.Slice(msgs, func(i, j int) bool {
		a, b := msgs[i].Message, msgs[j].Message
		if a.Function != b.Function {
			return a.Function < b.Function
		}
		return a.Context < b.Context
	})
}
