// Command firmres analyzes firmware images: it pinpoints the device-cloud
// executable, reconstructs the device-cloud messages, and prints the
// recovered fields, formats, and access-control findings.
//
// Usage:
//
//	firmres [-model file] [-json] [-stage-timeout d] [-keep-going] [-j N]
//	        [-lint] [-lint-rules r1,r2] [-lint-json] [-timings] [-stripped]
//	        [-probe] [-probe-chaos modes] [-probe-seed n] [-probe-probers n]
//	        [-trace] [-trace-json file] [-metrics file] [-progress]
//	        [-cache dir] [-cache-max-bytes n] [-no-cache] [-cache-clear]
//	        [-pprof addr] image.img [image2.img ...]
//
// With -j N (N != 1) the images are analyzed as one batch on up to N
// concurrent workers (N <= 0 means GOMAXPROCS) and the reports print in
// input order; -j 1 (the default) analyzes sequentially. Output is
// identical either way.
//
// Caching: -cache DIR serves every analysis from a persistent
// content-addressed result cache (and stores fresh results back), keyed on
// the image bytes, the effective analysis options, and the pipeline
// version — warm re-runs of a corpus become disk reads. -cache-max-bytes
// caps the directory size (LRU eviction), -cache-clear empties it before
// the run (with no images, it just clears and exits), and -no-cache
// disables caching even when -cache is given. Cached output is
// byte-identical to a fresh analysis.
//
// Stripped firmware: -stripped forces the symbol-recovery pass — function
// boundaries, string constants, and extern identities are rebuilt before
// analysis (the pass also engages automatically on binaries that arrive
// without a symbol table). The report gains a recovery section listing the
// per-extern bindings and their confidence; -stripped changes the cache key,
// so symbol-full cached results are never served for a stripped run.
//
// Probing: -probe replays every reconstructed message against a simulated
// cloud built from the device's corpus spec and reports per-message
// exploitability (the paper's §V loop). -probe-chaos injects seeded
// deterministic faults ("latency", "reset", "drop", "5xx", "slowloris", or
// "all") in front of the cloud; -probe-seed pins the fault schedule —
// identical seeds yield identical probe reports — and -probe-probers bounds
// the concurrent probers per device.
//
// Observability: -trace prints the hierarchical span tree of the run to
// stderr; -timings prints, once the run ends, the per-stage wall-clock
// totals summed from the stage spans of the analyses the run executed (a
// report served from -cache ran no stage and adds nothing); -trace-json
// writes the same spans as Chrome trace_event JSON
// (chrome://tracing, Perfetto); -metrics writes the aggregated work
// counters in Prometheus text format; -progress reports per-image progress
// on stderr; -pprof with a ':' in its value serves net/http/pprof on that
// address for the duration of the run, and with any other value writes a
// CPU profile to <value>.cpu.pprof during the run plus a heap profile to
// <value>.heap.pprof on exit. None of these change the analysis output.
//
// Exit codes: 0 when every image analyzed cleanly, 1 when any image failed
// fatally, 2 on usage errors, 3 when every image produced a report but at
// least one degraded (partial results recorded in its Errors).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"firmres"
	"firmres/internal/profio"
)

// Exit codes.
const (
	exitOK      = 0
	exitFatal   = 1
	exitUsage   = 2
	exitPartial = 3
)

type options struct {
	modelPath    string
	asJSON       bool
	stageTimeout time.Duration
	lint         bool
	lintRules    string
	lintJSON     bool
	timings      bool
	stripped     bool
	probe        bool
	probeChaos   string
	probeSeed    int64
	probeProbers int
	jobs         int
	trace        bool
	traceJSON    string
	metricsPath  string
	progress     bool
	pprofAddr    string
	cacheDir     string
	cacheMax     int64
	noCache      bool
	cacheClear   bool
}

// cacheEnabled reports whether analyses should go through the persistent
// result cache.
func (o options) cacheEnabled() bool { return o.cacheDir != "" && !o.noCache }

// main delegates to run so the observability sinks' deferred writes happen
// before the process exits (os.Exit skips defers).
func main() {
	os.Exit(run())
}

func run() int {
	var opts options
	flag.StringVar(&opts.modelPath, "model", "", "trained TextCNN model file (default: keyword classifier)")
	flag.BoolVar(&opts.asJSON, "json", false, "emit the report as JSON")
	flag.DurationVar(&opts.stageTimeout, "stage-timeout", 0,
		"per-stage analysis budget; over-budget stages are skipped and recorded (0 = unlimited)")
	flag.BoolVar(&opts.lint, "lint", false,
		"run the lint passes over the identified executable and print diagnostics")
	flag.StringVar(&opts.lintRules, "lint-rules", "",
		"comma-separated lint rules to run (implies -lint; default: all)")
	flag.BoolVar(&opts.lintJSON, "lint-json", false,
		"emit lint diagnostics as a SARIF 2.1.0 document instead of the text report (implies -lint)")
	flag.BoolVar(&opts.timings, "timings", false,
		"print the run's per-stage wall-clock totals to stderr when the run ends")
	flag.BoolVar(&opts.stripped, "stripped", false,
		"force symbol recovery for stripped firmware (auto-detected for binaries without symbol tables)")
	flag.BoolVar(&opts.probe, "probe", false,
		"replay reconstructed messages against a simulated cloud and report exploitability")
	flag.StringVar(&opts.probeChaos, "probe-chaos", "",
		"comma-separated chaos fault modes injected in front of the simulated cloud (latency,reset,drop,5xx,slowloris or all; implies -probe)")
	flag.Int64Var(&opts.probeSeed, "probe-seed", 0,
		"seed for the chaos fault schedule; identical seeds give identical probe reports")
	flag.IntVar(&opts.probeProbers, "probe-probers", 0,
		"concurrent probers per device (0 = default 8); output is identical at any count")
	flag.IntVar(&opts.jobs, "j", 1,
		"analyze up to N images concurrently (0 = GOMAXPROCS; 1 = sequential)")
	flag.BoolVar(&opts.trace, "trace", false,
		"print the hierarchical span tree of the run to stderr")
	flag.StringVar(&opts.traceJSON, "trace-json", "",
		"write the run's spans as Chrome trace_event JSON to this file")
	flag.StringVar(&opts.metricsPath, "metrics", "",
		"write the run's aggregated work counters in Prometheus text format to this file")
	flag.BoolVar(&opts.progress, "progress", false,
		"report per-image progress on stderr")
	flag.StringVar(&opts.pprofAddr, "pprof", "",
		"with a ':' in the value, serve net/http/pprof on that address for the duration of the run; otherwise write <value>.cpu.pprof and <value>.heap.pprof")
	flag.StringVar(&opts.cacheDir, "cache", "",
		"serve analyses from a persistent result cache rooted at this directory (created if missing)")
	flag.Int64Var(&opts.cacheMax, "cache-max-bytes", 0,
		"cap the cache directory size; least-recently-used entries are evicted (0 = unbounded)")
	flag.BoolVar(&opts.noCache, "no-cache", false,
		"disable the result cache even when -cache is given")
	flag.BoolVar(&opts.cacheClear, "cache-clear", false,
		"clear the -cache directory before the run (with no images: clear and exit)")
	keepGoing := flag.Bool("keep-going", false,
		"keep analyzing remaining images after a fatal per-image failure")
	flag.Parse()
	if opts.cacheClear {
		if opts.cacheDir == "" {
			fmt.Fprintln(os.Stderr, "firmres: -cache-clear requires -cache DIR")
			return exitUsage
		}
		if err := firmres.ClearCache(opts.cacheDir); err != nil {
			fmt.Fprintf(os.Stderr, "firmres: cache-clear: %v\n", err)
			return exitFatal
		}
		if flag.NArg() == 0 {
			return exitOK
		}
	}
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: firmres [-model file] [-json] [-stage-timeout d] [-keep-going] [-j N] [-lint] [-lint-rules r1,r2] [-lint-json] [-timings] [-stripped] [-probe] [-probe-chaos modes] [-probe-seed n] [-probe-probers n] [-trace] [-trace-json file] [-metrics file] [-progress] [-cache dir] [-cache-max-bytes n] [-no-cache] [-cache-clear] [-pprof addr] image.img ...")
		return exitUsage
	}
	if opts.pprofAddr != "" {
		warn := func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "firmres: "+format+"\n", args...)
		}
		stop, err := profio.Start(opts.pprofAddr, warn)
		if err != nil {
			fmt.Fprintf(os.Stderr, "firmres: %v\n", err)
			return exitUsage
		}
		defer stop()
	}
	sink := newObsSink(opts)
	defer sink.finish(os.Stderr)
	if opts.jobs != 1 {
		return runBatch(os.Stdout, flag.Args(), opts, *keepGoing, sink)
	}
	exit := exitOK
	paths := flag.Args()
	for i, path := range paths {
		start := time.Now()
		partial, err := analyze(os.Stdout, path, opts, sink)
		if opts.progress {
			fmt.Fprintf(os.Stderr, "progress: %d/%d images (%d%%)  %s done in %v\n",
				i+1, len(paths), (i+1)*100/len(paths), path, time.Since(start).Round(time.Millisecond))
		}
		switch {
		case err != nil:
			fmt.Fprintf(os.Stderr, "firmres: %s: %v\n", path, err)
			exit = exitFatal
			if !*keepGoing {
				return exit
			}
		case partial && exit == exitOK:
			exit = exitPartial
		}
	}
	return exit
}

// obsSink accumulates the run's observability outputs — one trace, one
// set of stage totals, and one merged metrics snapshot across every
// analyzed image — and writes them when the run finishes.
type obsSink struct {
	opts       options
	trace      *firmres.Trace
	timer      *stageTimer // nil without -timings
	metrics    map[string]int64
	cacheStats firmres.CacheStats // accumulated across every Analyze call
}

func newObsSink(opts options) *obsSink {
	s := &obsSink{opts: opts}
	if opts.trace || opts.traceJSON != "" {
		s.trace = firmres.NewTrace()
	}
	if opts.timings {
		s.timer = &stageTimer{totals: map[string]time.Duration{}}
		for _, name := range firmres.StageNames() {
			s.timer.totals[name] = 0
		}
	}
	return s
}

// stageTimer is the -timings Observer: it sums the duration of every stage
// span the run opens. A report served from the cache opens none.
type stageTimer struct {
	mu     sync.Mutex
	totals map[string]time.Duration // pre-keyed with firmres.StageNames()
	call   int                      // the newest Analyze call
}

// callTimer is one Analyze call's Observer. A -trace recorder keeps every
// earlier call's observers attached, so only the newest call's counts.
type callTimer struct {
	t    *stageTimer
	call int
}

func (c callTimer) SpanStart(firmres.SpanEvent) {}

func (c callTimer) SpanEnd(ev firmres.SpanEvent) {
	c.t.mu.Lock()
	defer c.t.mu.Unlock()
	if _, stage := c.t.totals[ev.Name]; stage && c.call == c.t.call {
		c.t.totals[ev.Name] += ev.Duration()
	}
}

// options returns the analysis options the sink needs threaded into every
// Analyze call. The batch path attaches the progress reporter here (its
// total is the whole batch); the sequential path prints progress itself.
// Nil-safe: a nil sink configures nothing.
func (s *obsSink) options(batch bool) []firmres.Option {
	if s == nil {
		return nil
	}
	var out []firmres.Option
	if s.trace != nil {
		out = append(out, firmres.WithTrace(s.trace))
	}
	if t := s.timer; t != nil {
		t.mu.Lock()
		t.call++
		out = append(out, firmres.WithObserver(callTimer{t: t, call: t.call}))
		t.mu.Unlock()
	}
	if s.opts.metricsPath != "" {
		out = append(out, firmres.WithMetrics())
	}
	if batch && s.opts.progress {
		out = append(out, firmres.WithProgress(os.Stderr))
	}
	if s.opts.cacheEnabled() {
		out = append(out, firmres.WithCacheStats(&s.cacheStats))
	}
	return out
}

// merge folds one report's metrics snapshot into the run aggregate.
// Nil-safe: a nil sink discards the snapshot.
func (s *obsSink) merge(m map[string]int64) {
	if s == nil {
		return
	}
	s.metrics = firmres.MergeMetrics(s.metrics, m)
}

// finish writes the collected trace tree and stage timings to w and the
// file exports to their destinations.
func (s *obsSink) finish(w io.Writer) {
	if s.trace != nil && s.opts.trace {
		if err := s.trace.WriteTree(w); err != nil {
			fmt.Fprintf(os.Stderr, "firmres: trace: %v\n", err)
		}
	}
	if t := s.timer; t != nil {
		t.mu.Lock()
		fmt.Fprintln(w, "== stage timings (stages this run executed)")
		for _, name := range firmres.StageNames() {
			fmt.Fprintf(w, "   %-24s %v\n", name, t.totals[name])
		}
		t.mu.Unlock()
	}
	if s.trace != nil && s.opts.traceJSON != "" {
		if err := writeFile(s.opts.traceJSON, s.trace.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "firmres: trace-json: %v\n", err)
		}
	}
	if s.opts.metricsPath != "" {
		if s.opts.cacheEnabled() {
			s.metrics = firmres.MergeMetrics(s.metrics, s.cacheStats.Snapshot())
		}
		write := func(w io.Writer) error { return firmres.WriteMetrics(w, s.metrics) }
		if err := writeFile(s.opts.metricsPath, write); err != nil {
			fmt.Fprintf(os.Stderr, "firmres: metrics: %v\n", err)
		}
	}
}

// writeFile streams one export into a freshly created file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runBatch analyzes every image concurrently, then renders the results in
// input order with the sequential path's exit-code and -keep-going
// semantics: a fatal image stops the output there unless -keep-going.
func runBatch(w io.Writer, paths []string, opts options, keepGoing bool, sink *obsSink) int {
	apiOpts := append(apiOptions(opts), sink.options(true)...)
	br, err := firmres.AnalyzePaths(context.Background(), paths, apiOpts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "firmres: %v\n", err)
		return exitFatal
	}
	sink.merge(br.Summary.Metrics)
	exit := exitOK
	for _, res := range br.Images {
		if errors.Is(res.Err, firmres.ErrNoDeviceCloudExecutable) {
			fmt.Fprintf(w, "%s: no device-cloud executable (script-based cloud agent?)\n", res.Path)
			continue
		}
		if res.Err != nil {
			fmt.Fprintf(os.Stderr, "firmres: %s: %v\n", res.Path, res.Err)
			exit = exitFatal
			if !keepGoing {
				return exit
			}
			continue
		}
		if partial, err := render(w, res.Path, res.Report, opts); err != nil {
			fmt.Fprintf(os.Stderr, "firmres: %s: %v\n", res.Path, err)
			exit = exitFatal
			if !keepGoing {
				return exit
			}
		} else if partial && exit == exitOK {
			exit = exitPartial
		}
	}
	return exit
}

// apiOptions maps the CLI flags to analysis options.
func apiOptions(opts options) []firmres.Option {
	var apiOpts []firmres.Option
	if opts.modelPath != "" {
		apiOpts = append(apiOpts, firmres.WithModelFile(opts.modelPath))
	}
	if opts.stageTimeout > 0 {
		apiOpts = append(apiOpts, firmres.WithStageTimeout(opts.stageTimeout))
	}
	if opts.jobs != 1 {
		apiOpts = append(apiOpts, firmres.WithWorkers(opts.jobs))
	}
	if opts.lintRules != "" {
		var rules []string
		for _, r := range strings.Split(opts.lintRules, ",") {
			if r = strings.TrimSpace(r); r != "" {
				rules = append(rules, r)
			}
		}
		apiOpts = append(apiOpts, firmres.WithLintRules(rules...))
	} else if opts.lint || opts.lintJSON {
		apiOpts = append(apiOpts, firmres.WithLint())
	}
	if opts.stripped {
		apiOpts = append(apiOpts, firmres.WithStrippedMode())
	}
	if opts.cacheEnabled() {
		apiOpts = append(apiOpts, firmres.WithCache(opts.cacheDir))
		if opts.cacheMax > 0 {
			apiOpts = append(apiOpts, firmres.WithCacheMaxBytes(opts.cacheMax))
		}
	}
	if opts.probe || opts.probeChaos != "" {
		apiOpts = append(apiOpts, firmres.WithProbe())
		if opts.probeChaos != "" {
			var modes []string
			for _, m := range strings.Split(opts.probeChaos, ",") {
				if m = strings.TrimSpace(m); m != "" {
					modes = append(modes, m)
				}
			}
			apiOpts = append(apiOpts, firmres.WithProbeChaos(modes...))
		}
		if opts.probeSeed != 0 {
			apiOpts = append(apiOpts, firmres.WithProbeSeed(opts.probeSeed))
		}
		if opts.probeProbers > 0 {
			apiOpts = append(apiOpts, firmres.WithProbeProbers(opts.probeProbers))
		}
	}
	return apiOpts
}

// analyze runs one image and renders the report. It reports whether the
// analysis degraded (partial report) and any fatal error.
func analyze(w io.Writer, path string, opts options, sink *obsSink) (partial bool, err error) {
	apiOpts := append(apiOptions(opts), sink.options(false)...)
	report, err := firmres.AnalyzeFile(path, apiOpts...)
	if errors.Is(err, firmres.ErrNoDeviceCloudExecutable) {
		fmt.Fprintf(w, "%s: no device-cloud executable (script-based cloud agent?)\n", path)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	sink.merge(report.Metrics)
	return render(w, path, report, opts)
}

// render prints one report in the selected output format.
func render(w io.Writer, path string, report *firmres.Report, opts options) (partial bool, err error) {
	if opts.lintJSON {
		return report.Partial(), firmres.WriteSARIF(w, report.Diagnostics)
	}
	if opts.asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return report.Partial(), enc.Encode(report)
	}
	printReport(w, path, report, opts)
	return report.Partial(), nil
}

func printReport(w io.Writer, path string, r *firmres.Report, opts options) {
	fmt.Fprintf(w, "== %s — %s (%s)\n", path, r.Device, r.Version)
	fmt.Fprintf(w, "   device-cloud executable: %s\n", r.Executable)
	if r.ClusterCounts != nil {
		fmt.Fprintf(w, "   delimiter clusters: thd0.5=%d thd0.6=%d thd0.7=%d\n",
			r.ClusterCounts["0.5"], r.ClusterCounts["0.6"], r.ClusterCounts["0.7"])
	}
	flagged := 0
	for _, m := range r.Messages {
		marker := " "
		if m.Flagged {
			marker = "!"
			flagged++
		}
		route := m.Path
		if m.Topic != "" {
			route = "topic " + m.Topic
		}
		fmt.Fprintf(w, " %s %-24s %-6s %-42s %d fields", marker, m.Function, m.Format, route, len(m.Fields))
		if m.Flagged {
			fmt.Fprintf(w, "  [%s] %s", m.Verdict, m.Detail)
		}
		if m.Discarded {
			fmt.Fprintf(w, "  [discarded] %s", m.Detail)
		}
		fmt.Fprintln(w)
		for _, f := range m.Fields {
			if f.Semantics != "" && f.Semantics != "None" {
				fmt.Fprintf(w, "       %-14s %-16s %s=%s\n", f.Semantics, f.Source, f.Key, f.Value)
			}
		}
	}
	fmt.Fprintf(w, "   %d messages reconstructed, %d flagged\n", len(r.Messages), flagged)
	if rec := r.Recovery; rec != nil {
		fmt.Fprintf(w, "   recovery (%s): %d functions, %d strings, %d/%d externs bound\n",
			rec.Binary, rec.FuncsRecovered, rec.StringsRecovered, rec.ExternsBound, rec.ExternsTotal)
		for _, b := range rec.Bindings {
			name := b.Name
			if name == "" {
				name = "(unbound)"
			}
			fmt.Fprintf(w, "     - import#%-3d %-26s conf=%.2f  %s\n", b.Import, name, b.Confidence, b.Evidence)
		}
		for _, n := range rec.Notes {
			fmt.Fprintf(w, "     note: %s\n", n)
		}
	}
	if opts.lint || opts.lintRules != "" {
		if len(r.Diagnostics) == 0 {
			fmt.Fprintf(w, "   lint: clean\n")
		} else {
			fmt.Fprintf(w, "   lint: %d finding(s)\n", len(r.Diagnostics))
			for _, d := range r.Diagnostics {
				fmt.Fprintf(w, "     - [%s] %s %s@%#x: %s\n", d.Severity, d.Rule, d.Function, d.Addr, d.Message)
				for _, ev := range d.Evidence {
					fmt.Fprintf(w, "         %s\n", ev)
				}
			}
		}
	}
	if p := r.Probe; p != nil {
		fmt.Fprintf(w, "   probe: %d probed, %d granted, %d denied, %d invalid, %d failed — %d exploitable\n",
			p.Probed, p.Counts[firmres.ProbeGranted], p.Counts[firmres.ProbeDenied],
			p.Counts[firmres.ProbeInvalid], p.Counts[firmres.ProbeFailed], p.Vulnerable)
		for _, o := range p.Outcomes {
			if o.Classification != firmres.ProbeGranted && o.ErrorKind == "" {
				continue
			}
			fmt.Fprintf(w, "     - %-24s %-5s %-42s %s", o.Function, o.Transport, o.Route, o.Classification)
			if o.ErrorKind != "" {
				fmt.Fprintf(w, " (%s)", o.ErrorKind)
			}
			fmt.Fprintln(w)
			for _, leak := range o.Leaks {
				fmt.Fprintf(w, "         %s\n", leak)
			}
		}
	}
	if r.Partial() {
		fmt.Fprintf(w, "   PARTIAL: %d analysis step(s) degraded:\n", len(r.Errors))
		for _, ae := range r.Errors {
			subject := ae.Stage
			if ae.Path != "" {
				subject += " " + ae.Path
			}
			fmt.Fprintf(w, "     - [%s] %s: %s\n", ae.Kind, subject, ae.Detail)
		}
	}
}
