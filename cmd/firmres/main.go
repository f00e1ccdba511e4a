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
// One Analyzer analyzes the images of a run on up to -j N concurrent
// workers (N <= 0 means GOMAXPROCS; the default, 1, takes one image at a
// time), so the options are resolved once per run: a -model file is loaded
// once, and one that cannot be loaded exits 2 before the first image, as a
// bad -cache-max-bytes does. Each image's report prints in input order as
// soon as it and every image before it are done, so the output is
// identical at any -j, and the run holds only the reports that finished
// ahead of the first unfinished image. A fatal image (one that is
// unreadable or corrupt, say) prints its error to stderr and ends the run
// there, unless -keep-going: no later image starts once that error is
// printed, and -metrics counts only the reports printed before it (and
// under -cache only the cache lookups of the images up to it).
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
// counters in Prometheus text format; -progress prints a line to stderr as
// each image's analysis ends (images done of the run's total, duration,
// ETA and the stages of the images in flight), at every -j; -pprof with a
// ':' in its value serves net/http/pprof on that address for the duration
// of the run, and with any other value writes a CPU profile to
// <value>.cpu.pprof during the run plus a heap profile to
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
	"firmres/internal/obs"
	"firmres/internal/parallel"
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
	// The progress reporter writes its lines from the workers while the
	// driver writes error lines: one lock orders their writes.
	stderr = &lockedWriter{w: stderr}
	sink := newObsSink(opts)
	defer sink.finish(stderr)
	// A configuration error, such as a -model file that cannot be loaded,
	// fails here: a usage error before the first image.
	a, err := firmres.NewAnalyzer(append(apiOptions(opts), sink.options(stderr, fs.NArg())...)...)
	if err != nil {
		printError(stderr, "", err)
		return exitUsage
	}
	return analyzeAll(stdout, stderr, a, fs.Args(), opts, *keepGoing, sink)
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

// obsSink accumulates the run's observability outputs — one trace, one
// set of stage totals, and one merged metrics snapshot across every
// analyzed image — and writes them when the run finishes.
type obsSink struct {
	opts     options
	trace    *firmres.Trace
	timer    *stageTimer   // nil without -timings
	progress *obs.Progress // nil without -progress
	metrics  map[string]int64
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
// run's analyses; the progress reporter writes to stderr, and its total is
// the run's image count.
func (s *obsSink) options(stderr io.Writer, total int) []firmres.Option {
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
	if s.opts.progress {
		s.progress = obs.NewProgress(stderr, total)
		out = append(out, firmres.WithObserver(s.progress))
	}
	return out
}

// unreadable counts an image the run could not read, which reaches no
// analysis and so opens no span, in the progress reporter.
func (s *obsSink) unreadable(path string) {
	if s.progress != nil {
		s.progress.Skip(path, "fatal: unreadable")
	}
}

// merge folds a metrics snapshot, one report's or the run's cache
// counters, into the run aggregate.
func (s *obsSink) merge(m map[string]int64) {
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

// outcome is one image's turn at the output: what it prints on stdout, or
// the fatal error its stderr line reports.
type outcome struct {
	out      []byte // a buffer of the run's, returned once printed
	err      error
	partial  bool
	analyzed bool // the image was read and analyzed, through the cache when on
	hit      bool // the cache answered it
	metrics  map[string]int64
}

// analyzeAll analyzes the images through a on up to -j workers and prints
// each image's output in input order as soon as it and every image before
// it are done, so the run holds only the outcomes of images that finished
// ahead of the first unfinished one. A fatal image ends the run there
// unless keepGoing: no later image starts once its error is printed, the
// images already under way are cancelled and dropped, and -metrics merges
// only the reports printed before it, and under -cache only the lookups
// of the images up to it: the cache's hits and misses are counted from
// the outcomes taken in input order, so the file is the same at every -j.
func analyzeAll(stdout, stderr io.Writer, a *firmres.Analyzer, paths []string, opts options, keepGoing bool, sink *obsSink) int {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	var (
		bufs         parallel.FreeList[[]byte] // report and output buffers, reused image after image
		mu           sync.Mutex                // guards held, next, exit and the counts, and orders the writes
		held         = map[int]outcome{}
		next         int
		exit         = exitOK
		hits, misses int64
	)
	parallel.ForEach(ctx, parallel.CPUWorkers(opts.jobs), len(paths), func(i int) {
		js, _ := bufs.Get()
		out, _ := bufs.Get()
		o, js := analyze(ctx, a, paths[i], opts, js, out)
		parallel.PutBuf(&bufs, js)
		if !o.analyzed {
			sink.unreadable(paths[i])
		}
		mu.Lock()
		defer mu.Unlock()
		held[i] = o
		for ; ctx.Err() == nil; next++ {
			o, ok := held[next]
			if !ok {
				return
			}
			delete(held, next)
			switch {
			case o.hit:
				hits++
			case o.analyzed:
				misses++
			}
			err := o.err
			if err == nil {
				sink.merge(o.metrics)
				_, err = stdout.Write(o.out)
			}
			parallel.PutBuf(&bufs, o.out)
			switch {
			case err != nil:
				printError(stderr, paths[next], err)
				exit = exitFatal
				if !keepGoing {
					stop()
				}
			case o.partial && exit == exitOK:
				exit = exitPartial
			}
		}
	})
	if opts.cacheEnabled() {
		cs := a.CacheStats()
		cs.Hits, cs.Misses = hits, misses
		sink.merge(cs.Snapshot())
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

// analyze runs one image through a, which appends the report's JSON to js,
// and renders the image's output into out[:0]. It returns the outcome and
// js, grown, for the worker's next image.
func analyze(ctx context.Context, a *firmres.Analyzer, path string, opts options, js, out []byte) (outcome, []byte) {
	o := outcome{out: out[:0]}
	data, err := os.ReadFile(path)
	if err != nil {
		o.err = err
		return o, js
	}
	report, rjs, hit, err := a.Analyze(ctx, js, data, nil)
	o.analyzed, o.hit = true, hit
	switch {
	case errors.Is(err, firmres.ErrNoDeviceCloudExecutable):
		o.out = fmt.Appendf(o.out, "%s: no device-cloud executable (script-based cloud agent?)\n", path)
		return o, js
	case err != nil:
		o.err = err
		return o, js
	}
	b := bytes.NewBuffer(o.out)
	o.err = render(b, path, report, rjs, opts)
	o.out, o.partial, o.metrics = b.Bytes(), report.Partial(), report.Metrics
	return o, rjs
}

// render writes one report in the selected output format; js is its
// canonical JSON, which -json indents by two spaces and ends with a
// newline: the bytes an Encoder with SetIndent("", "  ") writes.
func render(b *bytes.Buffer, path string, report *firmres.Report, js []byte, opts options) error {
	switch {
	case opts.lintJSON:
		return firmres.WriteSARIF(b, report.Diagnostics)
	case opts.asJSON:
		if err := json.Indent(b, js, "", "  "); err != nil {
			return err
		}
		return b.WriteByte('\n')
	}
	printReport(b, path, report, opts)
	return nil
}

// lockedWriter serializes the writes of concurrent callers to w.
type lockedWriter struct {
	mu sync.Mutex
	w  io.Writer
}

func (l *lockedWriter) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.w.Write(p)
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
