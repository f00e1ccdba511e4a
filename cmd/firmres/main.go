// Command firmres analyzes firmware images: it pinpoints the device-cloud
// executable, reconstructs the device-cloud messages, and prints the
// recovered fields, formats, and access-control findings.
//
// Usage:
//
//	firmres [-model file] [-json] [-keep-going] [-j N]
//	        [-lint] [-lint-rules r1,r2] [-lint-json] [-timings]
//	        [-probe] [-probe-chaos modes] [-probe-seed n] [-probe-probers n]
//	        [-trace] [-trace-json file] [-metrics file] [-progress]
//	        [-cache dir] [-cache-max-bytes n] [-no-cache] [-cache-clear]
//	        [-pprof addr] image.img [image2.img ...]
//
// With -j N (N != 1) the images are analyzed as one batch on up to N
// concurrent workers (N <= 0 means GOMAXPROCS) and the reports print in
// input order; -j 1 (the default) analyzes sequentially. Output is
// identical either way, and either way the options are resolved once per
// run: a -model file is loaded once, and one that cannot be loaded exits 2
// before the first image, as a bad -cache-max-bytes does.
//
// Caching: -cache DIR serves every analysis from a persistent
// content-addressed result cache (and stores fresh results back), keyed on
// the image bytes, the effective analysis options, and the pipeline
// version — warm re-runs of a corpus become disk reads. -cache-max-bytes
// caps the directory size (LRU eviction; a negative cap, or one without
// -cache, is a usage error), -cache-clear empties it before
// the run (with no images, it just clears and exits), and -no-cache
// disables caching even when -cache is given. Cached output is
// byte-identical to a fresh analysis.
//
// Stripped firmware needs no flag: every binary that arrives without
// function symbols, data symbols or import names gets the symbol-recovery
// pass before analysis — function boundaries, string constants, and extern
// identities are rebuilt — and its report gains a recovery section listing
// the per-extern bindings and their confidence.
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
// fatally, 2 on usage errors (an unloadable -model among them), 3 when
// every image produced a report but at least one degraded (partial results
// recorded in its Errors).
package main

import (
	"bytes"
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
	lint         bool
	lintRules    string
	lintJSON     bool
	timings      bool
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
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one command line, writing reports to stdout and
// diagnostics to stderr, and returns the exit code.
func run(args []string, stdout, stderr io.Writer) int {
	var opts options
	fs := flag.NewFlagSet("firmres", flag.ExitOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&opts.modelPath, "model", "", "trained TextCNN model file (default: keyword classifier)")
	fs.BoolVar(&opts.asJSON, "json", false, "emit the report as JSON")
	fs.BoolVar(&opts.lint, "lint", false,
		"run the lint passes over the identified executable and print diagnostics")
	fs.StringVar(&opts.lintRules, "lint-rules", "",
		"comma-separated lint rules to run (implies -lint; default: all)")
	fs.BoolVar(&opts.lintJSON, "lint-json", false,
		"emit lint diagnostics as a SARIF 2.1.0 document instead of the text report (implies -lint)")
	fs.BoolVar(&opts.timings, "timings", false,
		"print the run's per-stage wall-clock totals to stderr when the run ends")
	fs.BoolVar(&opts.probe, "probe", false,
		"replay reconstructed messages against a simulated cloud and report exploitability")
	fs.StringVar(&opts.probeChaos, "probe-chaos", "",
		"comma-separated chaos fault modes injected in front of the simulated cloud (latency,reset,drop,5xx,slowloris or all; implies -probe)")
	fs.Int64Var(&opts.probeSeed, "probe-seed", 0,
		"seed for the chaos fault schedule; identical seeds give identical probe reports")
	fs.IntVar(&opts.probeProbers, "probe-probers", 0,
		"concurrent probers per device (0 = default 8); output is identical at any count")
	fs.IntVar(&opts.jobs, "j", 1,
		"analyze up to N images concurrently (0 = GOMAXPROCS; 1 = sequential)")
	fs.BoolVar(&opts.trace, "trace", false,
		"print the hierarchical span tree of the run to stderr")
	fs.StringVar(&opts.traceJSON, "trace-json", "",
		"write the run's spans as Chrome trace_event JSON to this file")
	fs.StringVar(&opts.metricsPath, "metrics", "",
		"write the run's aggregated work counters in Prometheus text format to this file")
	fs.BoolVar(&opts.progress, "progress", false,
		"report per-image progress on stderr")
	fs.StringVar(&opts.pprofAddr, "pprof", "",
		"with a ':' in the value, serve net/http/pprof on that address for the duration of the run; otherwise write <value>.cpu.pprof and <value>.heap.pprof")
	fs.StringVar(&opts.cacheDir, "cache", "",
		"serve analyses from a persistent result cache rooted at this directory (created if missing)")
	fs.Int64Var(&opts.cacheMax, "cache-max-bytes", 0,
		"cap the -cache directory size; least-recently-used entries are evicted (0 = unbounded)")
	fs.BoolVar(&opts.noCache, "no-cache", false,
		"disable the result cache even when -cache is given")
	fs.BoolVar(&opts.cacheClear, "cache-clear", false,
		"clear the -cache directory before the run (with no images: clear and exit)")
	keepGoing := fs.Bool("keep-going", false,
		"keep analyzing remaining images after a fatal per-image failure")
	fs.Parse(args)
	switch {
	case opts.cacheMax < 0:
		fmt.Fprintf(stderr, "firmres: -cache-max-bytes %d is negative\n", opts.cacheMax)
		return exitUsage
	case opts.cacheMax != 0 && opts.cacheDir == "":
		fmt.Fprintln(stderr, "firmres: -cache-max-bytes requires -cache DIR")
		return exitUsage
	}
	if opts.cacheClear {
		if opts.cacheDir == "" {
			fmt.Fprintln(stderr, "firmres: -cache-clear requires -cache DIR")
			return exitUsage
		}
		if err := firmres.ClearCache(opts.cacheDir); err != nil {
			printError(stderr, "cache-clear", err)
			return exitFatal
		}
		if fs.NArg() == 0 {
			return exitOK
		}
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: firmres [-model file] [-json] [-keep-going] [-j N] [-lint] [-lint-rules r1,r2] [-lint-json] [-timings] [-probe] [-probe-chaos modes] [-probe-seed n] [-probe-probers n] [-trace] [-trace-json file] [-metrics file] [-progress] [-cache dir] [-cache-max-bytes n] [-no-cache] [-cache-clear] [-pprof addr] image.img ...")
		return exitUsage
	}
	if opts.pprofAddr != "" {
		warn := func(format string, args ...any) {
			fmt.Fprintf(stderr, "firmres: "+format+"\n", args...)
		}
		stop, err := profio.Start(opts.pprofAddr, warn)
		if err != nil {
			printError(stderr, "", err)
			return exitUsage
		}
		defer stop()
	}
	sink := newObsSink(opts)
	defer sink.finish(stderr)
	if opts.jobs != 1 {
		return runBatch(stdout, stderr, fs.Args(), opts, *keepGoing, sink)
	}
	return runSequential(stdout, stderr, fs.Args(), opts, *keepGoing, sink)
}

// printError writes one error line to stderr with the command's prefix,
// naming subject (an image path, say) when it is not empty. The library's
// errors begin with its package name, which is also "firmres: "; it is
// dropped, so that every line carries the prefix once.
func printError(stderr io.Writer, subject string, err error) {
	msg := strings.TrimPrefix(err.Error(), "firmres: ")
	if subject != "" {
		msg = subject + ": " + msg
	}
	fmt.Fprintf(stderr, "firmres: %s\n", msg)
}

// runSequential analyzes the images one after another through one
// Analyzer, rendering each report as it completes, with runBatch's
// exit-code and -keep-going semantics. A configuration error, such as a
// -model file that cannot be loaded, fails newAnalyzer: a usage error
// before the first image.
func runSequential(w, stderr io.Writer, paths []string, opts options, keepGoing bool, sink *obsSink) int {
	a, err := newAnalyzer(opts, sink)
	if err != nil {
		printError(stderr, "", err)
		return exitUsage
	}
	if opts.cacheEnabled() {
		defer func() { sink.merge(a.CacheStats().Snapshot()) }()
	}
	exit := exitOK
	var report []byte // the run's report JSON buffer, reused image after image
	for i, path := range paths {
		start := time.Now()
		partial, err := analyze(w, a, path, opts, sink, &report)
		if opts.progress {
			fmt.Fprintf(stderr, "progress: %d/%d images (%d%%)  %s done in %v\n",
				i+1, len(paths), (i+1)*100/len(paths), path, time.Since(start).Round(time.Millisecond))
		}
		switch {
		case err != nil:
			printError(stderr, path, err)
			exit = exitFatal
			if !keepGoing {
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
	opts    options
	trace   *firmres.Trace
	timer   *stageTimer // nil without -timings
	metrics map[string]int64
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
}

func (t *stageTimer) SpanStart(firmres.SpanEvent) {}

func (t *stageTimer) SpanEnd(ev firmres.SpanEvent) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, stage := t.totals[ev.Name]; stage {
		t.totals[ev.Name] += ev.Duration()
	}
}

// options returns the analysis options the sink needs threaded into the
// run's analyses. The batch path attaches the progress reporter here,
// writing to progress (its total is the whole batch); the sequential path
// passes nil and prints progress itself. Nil-safe: a nil sink configures
// nothing.
func (s *obsSink) options(progress io.Writer) []firmres.Option {
	if s == nil {
		return nil
	}
	var out []firmres.Option
	if s.trace != nil {
		out = append(out, firmres.WithTrace(s.trace))
	}
	if s.timer != nil {
		out = append(out, firmres.WithObserver(s.timer))
	}
	if s.opts.metricsPath != "" {
		out = append(out, firmres.WithMetrics())
	}
	if progress != nil && s.opts.progress {
		out = append(out, firmres.WithProgress(progress))
	}
	return out
}

// merge folds a metrics snapshot, one report's or the run's cache
// counters, into the run aggregate. Nil-safe: a nil sink discards the
// snapshot.
func (s *obsSink) merge(m map[string]int64) {
	if s == nil {
		return
	}
	s.metrics = firmres.MergeMetrics(s.metrics, m)
}

// finish writes the collected trace tree and stage timings to w and the
// file exports to their destinations, reporting a failed write on w.
func (s *obsSink) finish(w io.Writer) {
	if s.trace != nil && s.opts.trace {
		if err := s.trace.WriteTree(w); err != nil {
			printError(w, "trace", err)
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
			printError(w, "trace-json", err)
		}
	}
	if s.opts.metricsPath != "" {
		write := func(w io.Writer) error { return firmres.WriteMetrics(w, s.metrics) }
		if err := writeFile(s.opts.metricsPath, write); err != nil {
			printError(w, "metrics", err)
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
// AnalyzePaths fails only on a configuration error, before the first
// image, which is a usage error as in the sequential path.
func runBatch(w, stderr io.Writer, paths []string, opts options, keepGoing bool, sink *obsSink) int {
	apiOpts := append(apiOptions(opts), sink.options(stderr)...)
	br, err := firmres.AnalyzePaths(context.Background(), paths, apiOpts...)
	if err != nil {
		printError(stderr, "", err)
		return exitUsage
	}
	sink.merge(br.Summary.Metrics)
	if cs := br.Summary.Cache; cs != nil {
		sink.merge(cs.Snapshot())
	}
	exit := exitOK
	for _, res := range br.Images {
		if errors.Is(res.Err, firmres.ErrNoDeviceCloudExecutable) {
			fmt.Fprintf(w, "%s: no device-cloud executable (script-based cloud agent?)\n", res.Path)
			continue
		}
		if res.Err != nil {
			printError(stderr, res.Path, res.Err)
			exit = exitFatal
			if !keepGoing {
				return exit
			}
			continue
		}
		if partial, err := render(w, res.Path, res.Report, nil, opts); err != nil {
			printError(stderr, res.Path, err)
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
	if opts.cacheEnabled() {
		apiOpts = append(apiOpts, firmres.WithCache(opts.cacheDir), firmres.WithCacheMaxBytes(opts.cacheMax))
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

// newAnalyzer resolves the options of a sequential run, once, into the
// Analyzer its images share: a -model file is loaded and fingerprinted,
// and the cache opened, once per run, not once per image.
func newAnalyzer(opts options, sink *obsSink) (*firmres.Analyzer, error) {
	return firmres.NewAnalyzer(append(apiOptions(opts), sink.options(nil)...)...)
}

// analyze runs one image through a and renders the report. Analyze
// encodes the report's JSON into *buf, which keeps the grown storage for
// the next image. It reports whether the analysis degraded (partial
// report) and any fatal error.
func analyze(w io.Writer, a *firmres.Analyzer, path string, opts options, sink *obsSink, buf *[]byte) (partial bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	report, js, _, err := a.Analyze(context.Background(), *buf, data, nil)
	if errors.Is(err, firmres.ErrNoDeviceCloudExecutable) {
		fmt.Fprintf(w, "%s: no device-cloud executable (script-based cloud agent?)\n", path)
		return false, nil
	}
	if err != nil {
		return false, err
	}
	*buf = js
	sink.merge(report.Metrics)
	return render(w, path, report, js, opts)
}

// render prints one report in the selected output format. js is the
// report's canonical JSON (json.Marshal's bytes) when the caller has it,
// or nil, and -json then encodes the report here.
func render(w io.Writer, path string, report *firmres.Report, js []byte, opts options) (partial bool, err error) {
	if opts.lintJSON {
		return report.Partial(), firmres.WriteSARIF(w, report.Diagnostics)
	}
	if opts.asJSON {
		return report.Partial(), writeIndented(w, report, js)
	}
	printReport(w, path, report, opts)
	return report.Partial(), nil
}

// writeIndented writes the report's JSON indented by two spaces and
// followed by a newline: the bytes an Encoder with SetIndent("", "  ")
// writes, indented from js instead of encoded again when js is not nil.
func writeIndented(w io.Writer, report *firmres.Report, js []byte) error {
	if js == nil {
		var err error
		if js, err = json.Marshal(report); err != nil {
			return err
		}
	}
	var out bytes.Buffer
	if err := json.Indent(&out, js, "", "  "); err != nil {
		return err
	}
	out.WriteByte('\n')
	_, err := w.Write(out.Bytes())
	return err
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
