package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"firmres"
	"firmres/internal/corpus"
	"firmres/internal/nn"
	"firmres/internal/semantics"
)

func writeImage(t *testing.T, id int) string {
	t.Helper()
	img, err := corpus.BuildImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	path := filepath.Join(t.TempDir(), "fw.img")
	if err := os.WriteFile(path, img.Pack(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// runCLI runs one command line and returns its exit code, stdout and
// stderr.
func runCLI(args ...string) (exit int, stdout, stderr string) {
	var out, errs bytes.Buffer
	exit = run(args, &out, &errs)
	return exit, out.String(), errs.String()
}

func TestAnalyzeTextOutput(t *testing.T) {
	exit, out, stderr := runCLI(writeImage(t, 5))
	if exit == exitFatal {
		t.Errorf("analyze: %s", stderr)
	}
	if exit == exitPartial {
		t.Error("clean image reported partial")
	}
	if !strings.Contains(out, "messages reconstructed") {
		t.Errorf("unexpected output: %q", out)
	}
}

func TestAnalyzeJSONOutput(t *testing.T) {
	exit, out, stderr := runCLI("-json", writeImage(t, 5))
	if exit == exitFatal {
		t.Errorf("analyze -json: %s", stderr)
	}
	var report firmres.Report
	if err := json.Unmarshal([]byte(out), &report); err != nil {
		t.Errorf("output is not valid JSON: %v", err)
	}
}

func TestAnalyzeLintTextOutput(t *testing.T) {
	path := writeImage(t, 11)
	render := func() string {
		exit, out, stderr := runCLI("-lint", path)
		if exit == exitFatal {
			t.Fatalf("analyze -lint: %s", stderr)
		}
		return out
	}
	text := render()
	for _, want := range []string{"lint: 2 finding(s)", "hardcoded-secret", "svc_auth_fallback", "dead-store", "svc_stats_tick"} {
		if !strings.Contains(text, want) {
			t.Errorf("lint output lacks %q:\n%s", want, text)
		}
	}
	if again := render(); again != text {
		t.Errorf("lint text output not byte-identical across runs:\n--- a ---\n%s--- b ---\n%s", text, again)
	}
}

func TestAnalyzeLintRulesFilter(t *testing.T) {
	exit, text, stderr := runCLI("-lint-rules", "dead-store", writeImage(t, 11))
	if exit == exitFatal {
		t.Fatalf("analyze -lint-rules: %s", stderr)
	}
	if !strings.Contains(text, "dead-store") {
		t.Errorf("selected rule missing: %q", text)
	}
	if strings.Contains(text, "hardcoded-secret svc_auth_fallback") {
		t.Errorf("rule filter leaked other rules: %q", text)
	}
	if exit, _, _ := runCLI("-lint-rules", "bogus", writeImage(t, 11)); exit != exitFatal {
		t.Errorf("unknown rule accepted: exit %d", exit)
	}
}

func TestAnalyzeLintCleanDevice(t *testing.T) {
	exit, out, stderr := runCLI("-lint", writeImage(t, 4))
	if exit == exitFatal {
		t.Fatalf("analyze -lint: %s", stderr)
	}
	if !strings.Contains(out, "lint: clean") {
		t.Errorf("clean device not reported clean: %q", out)
	}
}

func TestAnalyzeLintSARIFOutput(t *testing.T) {
	exit, out, stderr := runCLI("-lint-json", writeImage(t, 11))
	if exit == exitFatal {
		t.Fatalf("analyze -lint-json: %s", stderr)
	}
	var doc struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name string `json:"name"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID string `json:"ruleId"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "firmres-lint" {
		t.Errorf("SARIF shape wrong: %+v", doc)
	}
	if len(doc.Runs[0].Results) != 2 {
		t.Errorf("SARIF results = %d, want 2", len(doc.Runs[0].Results))
	}
}

// timingsFooter runs a -timings command line, which must exit cleanly, and
// returns the footer's duration for each stage.
func timingsFooter(t *testing.T, args ...string) map[string]string {
	t.Helper()
	exit, out, stderr := runCLI(append([]string{"-timings"}, args...)...)
	if exit != exitOK {
		t.Errorf("firmres -timings %s: exit %d: %s", strings.Join(args, " "), exit, stderr)
	}
	if strings.Contains(out, "stage timings") {
		t.Errorf("wall-clock leaked into the report: %q", out)
	}
	got := map[string]string{}
	for _, line := range strings.Split(stderr, "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			got[f[0]] = f[1]
		}
	}
	return got
}

// TestAnalyzeTimingsFlag runs two images at -j 2, whose stage spans end on
// many goroutines at once.
func TestAnalyzeTimingsFlag(t *testing.T) {
	got := timingsFooter(t, "-j", "2", "-lint", writeImage(t, 5), writeImage(t, 17))
	if len(got) != len(firmres.StageNames()) || got["lint-passes"] == "0s" || got["probe-replay"] != "0s" {
		t.Errorf("footer = %v, want every stage, lint timed, probe not run", got)
	}
}

// TestAnalyzeTimingsWarmCache: -timings sums the stages this run executed,
// so a run served from the cache reports no stage time instead of
// replaying the durations of the run that filled the cache.
func TestAnalyzeTimingsWarmCache(t *testing.T) {
	path, dir := writeImage(t, 5), t.TempDir()
	if cold := timingsFooter(t, "-cache", dir, path); cold["pinpoint-executables"] == "0s" {
		t.Errorf("cold run timed no pinpoint: %v", cold)
	}
	warm := timingsFooter(t, "-cache", dir, path)
	for _, name := range firmres.StageNames() {
		if warm[name] != "0s" {
			t.Errorf("warm run reports %q for %s, but no stage ran", warm[name], name)
		}
	}
}

// TestAnalyzeTimingsWithTrace: with -trace, every image records into one
// shared trace while the -timings observer rides along; the footer must
// count each image's stage spans exactly once, so it agrees with the sum
// the trace tree shows.
func TestAnalyzeTimingsWithTrace(t *testing.T) {
	path := writeImage(t, 5)
	exit, _, stderr := runCLI("-trace", "-timings", path, path, path)
	if exit != exitOK {
		t.Fatalf("analyze: exit %d: %s", exit, stderr)
	}
	var traced, footer time.Duration // tree lines read "name (1.2ms)"
	for _, line := range strings.Split(stderr, "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || f[0] != "pinpoint-executables" {
			continue
		}
		d, err := time.ParseDuration(strings.Trim(f[1], "()"))
		switch {
		case err != nil:
			t.Fatalf("line %q: %v", line, err)
		case strings.HasPrefix(f[1], "("):
			traced += d
		default:
			footer = d
		}
	}
	// The tree rounds to the microsecond; a double count adds a whole image.
	if traced == 0 || footer > traced*5/4 {
		t.Errorf("footer pinpoint = %v, trace tree sum = %v", footer, traced)
	}
}

func TestAnalyzeScriptOnlyIsNotAnError(t *testing.T) {
	if exit, _, stderr := runCLI(writeImage(t, 21)); exit != exitOK {
		t.Errorf("script-only device treated as error: exit %d: %s", exit, stderr)
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	if exit, _, _ := runCLI(filepath.Join(t.TempDir(), "nope.img")); exit != exitFatal {
		t.Errorf("missing file accepted: exit %d", exit)
	}
}

// TestAnalyzePartialReportRenders: an image with one rotten executable must
// still produce a rendered report, marked PARTIAL with the skipped work
// named, and the run must exit partial rather than fatal.
func TestAnalyzePartialReportRenders(t *testing.T) {
	img, err := corpus.BuildImage(corpus.Device(5))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	// Plant a corrupt binary alongside the real device-cloud executable.
	img.AddFile("/bin/rotten", 1, []byte("FRB1 this is not a real binary"))
	path := filepath.Join(t.TempDir(), "fw.img")
	if err := os.WriteFile(path, img.Pack(), 0o644); err != nil {
		t.Fatal(err)
	}
	exit, text, stderr := runCLI(path)
	if exit == exitFatal {
		t.Fatalf("analyze: %s", stderr)
	}
	if exit != exitPartial {
		t.Fatal("degraded analysis not reported as partial")
	}
	if !strings.Contains(text, "PARTIAL") {
		t.Errorf("partial report not marked: %q", text)
	}
	if !strings.Contains(text, "corrupt-binary") || !strings.Contains(text, "/bin/rotten") {
		t.Errorf("skipped work not named: %q", text)
	}
	if !strings.Contains(text, "messages reconstructed") {
		t.Errorf("partial report lost the message table: %q", text)
	}
}

// TestCacheCapUsageErrors: a negative -cache-max-bytes, or one without
// -cache, is a usage error (exit 2), not an unbounded cache or none.
func TestCacheCapUsageErrors(t *testing.T) {
	path := writeImage(t, 5)
	for _, args := range [][]string{
		{"-cache", t.TempDir(), "-cache-max-bytes", "-7", path},
		{"-cache-max-bytes", "-7", path},
		{"-cache-max-bytes", "100", path},
	} {
		if exit := run(args, io.Discard, io.Discard); exit != exitUsage {
			t.Errorf("firmres %s: exit %d, want %d", strings.Join(args, " "), exit, exitUsage)
		}
	}
	dir := t.TempDir()
	if exit := run([]string{"-cache", dir, "-cache-max-bytes", "100000", path}, io.Discard, io.Discard); exit != exitOK {
		t.Errorf("a capped cache: exit %d, want %d", exit, exitOK)
	}
	if ents, err := filepath.Glob(filepath.Join(dir, "*.fcache")); err != nil || len(ents) != 1 {
		t.Errorf("the capped cache holds %d entries (%v), want the report", len(ents), err)
	}
}

// writeModel saves an untrained TextCNN over the semantics labels, which
// loads and classifies like a trained one.
func writeModel(t *testing.T) string {
	t.Helper()
	vocab := nn.BuildVocab([][]string{{"uid", "token", "mac"}}, 1)
	model := nn.NewModel(nn.Config{EmbedDim: 8, Filters: 4, MaxLen: 32, Seed: 1}, vocab, semantics.Labels)
	path := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestModelResolvedOncePerRun: a run loads -model once, into the Analyzer
// its images share, so no image reads the file again (here it is gone once
// the Analyzer is built), at -j 1 as at -j 2. A model that cannot be
// loaded is a usage error (exit 2) before the first image, so nothing
// reaches the cache.
func TestModelResolvedOncePerRun(t *testing.T) {
	var model string
	paths := []string{writeImage(t, 5), writeImage(t, 17)}
	for _, jobs := range []int{1, 2} {
		model = writeModel(t)
		opts := options{modelPath: model, jobs: jobs}
		a, err := firmres.NewAnalyzer(apiOptions(opts)...)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(model); err != nil {
			t.Fatal(err)
		}
		var stderr bytes.Buffer
		if exit := analyzeAll(io.Discard, &stderr, a, paths, opts, true, newObsSink(opts)); exit != exitOK {
			t.Errorf("-j %d after the model file was removed: exit %d: %s", jobs, exit, stderr.String())
		}
	}

	bad := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	path := writeImage(t, 5)
	for _, m := range []string{bad, model} {
		for _, jobs := range []string{"1", "2"} {
			dir := t.TempDir()
			args := []string{"-model", m, "-j", jobs, "-cache", dir, path, path}
			if exit := run(args, io.Discard, io.Discard); exit != exitUsage {
				t.Errorf("firmres %s: exit %d, want %d", strings.Join(args, " "), exit, exitUsage)
			}
			if ents, err := filepath.Glob(filepath.Join(dir, "*.fcache")); err != nil || len(ents) != 0 {
				t.Errorf("firmres %s analyzed an image: %d cache entries (%v)", strings.Join(args, " "), len(ents), err)
			}
		}
	}
}

// TestErrorLinesCarryOnePrefix: the library's errors begin with its
// package name, "firmres: ", which is also the command's prefix; each
// error line carries it once, with the image path kept, at -j 1 as in a
// batch, and the exit codes stay those of a usage error and a fatal image.
func TestErrorLinesCarryOnePrefix(t *testing.T) {
	img := writeImage(t, 5)
	data, err := os.ReadFile(img)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.img")
	if err := os.WriteFile(trunc, data[:400], 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(t.TempDir(), "missing.gob")
	for _, jobs := range []string{"1", "2"} {
		for _, tc := range []struct {
			args   []string
			exit   int
			prefix string
		}{
			{[]string{"-model", missing, img}, exitUsage, "firmres: model file: open " + missing + ": "},
			{[]string{trunc}, exitFatal, "firmres: " + trunc + ": corrupt firmware image: "},
		} {
			args := append([]string{"-j", jobs}, tc.args...)
			var stdout, stderr bytes.Buffer
			if exit := run(args, &stdout, &stderr); exit != tc.exit {
				t.Errorf("firmres %s: exit %d, want %d", strings.Join(args, " "), exit, tc.exit)
			}
			lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n")
			if len(lines) != 1 || !strings.HasPrefix(lines[0], tc.prefix) || strings.Count(lines[0], "firmres: ") != 1 {
				t.Errorf("firmres %s wrote %q, want one line beginning %q with one prefix", strings.Join(args, " "), stderr.String(), tc.prefix)
			}
		}
	}
}

// TestJSONOutputUnchanged runs -json over devices 1-22 at -j 1 and at
// -j 2, where each report is indented from the JSON Analyze returns: both
// must print what an Encoder with SetIndent("", "  ") prints for the
// report, device after device.
func TestJSONOutputUnchanged(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	enc.SetIndent("", "  ")
	for id := 1; id <= 22; id++ {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("device%02d.img", id))
		if err := os.WriteFile(path, img.Pack(), 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
		rep, err := firmres.AnalyzeImage(img.Pack())
		if errors.Is(err, firmres.ErrNoDeviceCloudExecutable) {
			fmt.Fprintf(&want, "%s: no device-cloud executable (script-based cloud agent?)\n", path)
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(rep); err != nil {
			t.Fatal(err)
		}
	}
	for _, jobs := range []string{"1", "2"} {
		var stdout, stderr bytes.Buffer
		if exit := run(append([]string{"-json", "-j", jobs}, paths...), &stdout, &stderr); exit != exitOK {
			t.Fatalf("firmres -json -j %s: exit %d: %s", jobs, exit, stderr.String())
		}
		if !bytes.Equal(stdout.Bytes(), want.Bytes()) {
			t.Errorf("firmres -json -j %s printed %d bytes that differ from the Encoder's %d", jobs, stdout.Len(), want.Len())
		}
	}
}

// jobsImages writes device 1, a 200-byte truncation of it, device 2 and
// device 3, and returns their paths in that order.
func jobsImages(t *testing.T) []string {
	t.Helper()
	dir := t.TempDir()
	var paths []string
	write := func(name string, data []byte) {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	for _, id := range []int{1, 2, 3} {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatal(err)
		}
		write(fmt.Sprintf("device%02d.img", id), img.Pack())
		if id == 1 {
			write("trunc.img", img.Pack()[:200])
		}
	}
	return paths
}

// jobsResult is what one run printed and wrote: its exit code, reports,
// error lines and -metrics file.
type jobsResult struct {
	exit           int
	stdout, errors string
	metrics        []byte
}

// runJobs runs paths at -j jobs with -progress, -metrics and the extra
// flags.
func runJobs(t *testing.T, paths []string, jobs string, extra ...string) jobsResult {
	t.Helper()
	metrics := filepath.Join(t.TempDir(), "metrics.prom")
	args := append([]string{"-j", jobs, "-progress", "-metrics", metrics}, extra...)
	exit, stdout, stderr := runCLI(append(args, paths...)...)
	var errLines []string // stderr less the progress lines, whose order is the schedule's
	for _, line := range strings.SplitAfter(stderr, "\n") {
		if strings.HasPrefix(line, "firmres: ") {
			errLines = append(errLines, line)
		}
	}
	m, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	return jobsResult{exit, stdout, strings.Join(errLines, ""), m}
}

// TestJobsAgree: one driver at every -j. Over device 1, a 200-byte
// truncation of it, device 2 and device 3, a run prints the same reports,
// the same error lines and the same exit code, and writes the same
// -metrics file, at -j 1 as at -j 2, with and without -keep-going. Without
// it the truncated image ends the run, so -metrics counts device 1 alone.
func TestJobsAgree(t *testing.T) {
	paths := jobsImages(t)
	var stopped, kept jobsResult
	for _, keep := range [][]string{nil, {"-keep-going"}} {
		want := runJobs(t, paths, "1", keep...)
		if got := runJobs(t, paths, "2", keep...); !reflect.DeepEqual(got, want) {
			t.Errorf("flags %q: -j 2 printed exit %d, %d bytes of reports, errors %q and %d bytes of metrics; -j 1 exit %d, %d bytes, errors %q and %d bytes",
				keep, got.exit, len(got.stdout), got.errors, len(got.metrics),
				want.exit, len(want.stdout), want.errors, len(want.metrics))
		}
		if keep == nil {
			stopped = want
		} else {
			kept = want
		}
	}
	for _, r := range []jobsResult{stopped, kept} {
		if r.exit != exitFatal || strings.Count(r.errors, "\n") != 1 || !strings.Contains(r.errors, "trunc.img: corrupt firmware image") {
			t.Errorf("exit %d, errors %q: want exit %d and one error line for trunc.img", r.exit, r.errors, exitFatal)
		}
	}
	if n := strings.Count(stopped.stdout, "messages reconstructed"); n != 1 {
		t.Errorf("without -keep-going the run printed %d reports, want device 1's alone", n)
	}
	if n := strings.Count(kept.stdout, "messages reconstructed"); n != 3 {
		t.Errorf("with -keep-going the run printed %d reports, want 3", n)
	}
	if bytes.Equal(stopped.metrics, kept.metrics) {
		t.Error("-metrics counts the same reports with and without -keep-going")
	}
}

// TestCacheMetricsAgreeAcrossJobs: under -cache, -metrics counts the cache
// lookups of the images up to the fatal one that ends the run, not those
// of images already under way beside it. Over device 1, a 200-byte
// truncation of it, device 2 and device 3, with a fresh cache and no
// -keep-going, a run writes the same file at -j 2, three times, as at
// -j 1: two misses, device 1's and the truncation's.
func TestCacheMetricsAgreeAcrossJobs(t *testing.T) {
	paths := jobsImages(t)
	want := runJobs(t, paths, "1", "-cache", t.TempDir())
	if !bytes.Contains(want.metrics, []byte("firmres_cache_misses_total 2\n")) ||
		!bytes.Contains(want.metrics, []byte("firmres_cache_hits_total 0\n")) {
		t.Fatalf("-j 1 wrote\n%s\nwant 2 cache misses and no hit", want.metrics)
	}
	for i := 0; i < 3; i++ {
		if got := runJobs(t, paths, "2", "-cache", t.TempDir()); !bytes.Equal(got.metrics, want.metrics) {
			t.Fatalf("-j 2 wrote\n%s\nwant what -j 1 wrote:\n%s", got.metrics, want.metrics)
		}
	}
}

// TestProgressCountsUnreadableImages: an image the run cannot read counts
// in -progress like every other, so a -keep-going run over a missing file
// and two devices ends at 3/3, at every -j.
func TestProgressCountsUnreadableImages(t *testing.T) {
	paths := []string{filepath.Join(t.TempDir(), "nope.img"), writeImage(t, 1), writeImage(t, 2)}
	for _, jobs := range []string{"1", "2"} {
		exit, _, stderr := runCLI(append([]string{"-j", jobs, "-progress", "-keep-going"}, paths...)...)
		if exit != exitFatal || !strings.Contains(stderr, "nope.img done in 0s [fatal: unreadable]") ||
			!strings.Contains(stderr, "progress: 3/3 images (100%)") {
			t.Errorf("-j %s: exit %d, stderr:\n%s\nwant exit %d, nope.img counted as unreadable and progress at 3/3", jobs, exit, stderr, exitFatal)
		}
	}
}
