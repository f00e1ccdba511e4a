package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
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

// analyzeImage analyzes one image as a sequential run does, through an
// Analyzer resolved from opts and sink.
func analyzeImage(t *testing.T, w io.Writer, path string, opts options, sink *obsSink) (bool, error) {
	t.Helper()
	a, err := newAnalyzer(opts, sink)
	if err != nil {
		t.Fatalf("newAnalyzer: %v", err)
	}
	var buf []byte
	return analyze(w, a, path, opts, sink, &buf)
}

func TestAnalyzeTextOutput(t *testing.T) {
	var out bytes.Buffer
	partial, err := analyzeImage(t, &out, writeImage(t, 5), options{}, nil)
	if err != nil {
		t.Errorf("analyze: %v", err)
	}
	if partial {
		t.Error("clean image reported partial")
	}
	if !strings.Contains(out.String(), "messages reconstructed") {
		t.Errorf("unexpected output: %q", out.String())
	}
}

func TestAnalyzeJSONOutput(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, writeImage(t, 5), options{asJSON: true}, nil); err != nil {
		t.Errorf("analyze -json: %v", err)
	}
	var report firmres.Report
	if err := json.Unmarshal(out.Bytes(), &report); err != nil {
		t.Errorf("output is not valid JSON: %v", err)
	}
}

func TestAnalyzeLintTextOutput(t *testing.T) {
	path := writeImage(t, 11)
	render := func() string {
		var out bytes.Buffer
		if _, err := analyzeImage(t, &out, path, options{lint: true}, nil); err != nil {
			t.Fatalf("analyze -lint: %v", err)
		}
		return out.String()
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
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, writeImage(t, 11), options{lintRules: "dead-store"}, nil); err != nil {
		t.Fatalf("analyze -lint-rules: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "dead-store") {
		t.Errorf("selected rule missing: %q", text)
	}
	if strings.Contains(text, "hardcoded-secret svc_auth_fallback") {
		t.Errorf("rule filter leaked other rules: %q", text)
	}
	if _, err := analyzeImage(t, &out, writeImage(t, 11), options{lintRules: "bogus"}, nil); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestAnalyzeLintCleanDevice(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, writeImage(t, 4), options{lint: true}, nil); err != nil {
		t.Fatalf("analyze -lint: %v", err)
	}
	if !strings.Contains(out.String(), "lint: clean") {
		t.Errorf("clean device not reported clean: %q", out.String())
	}
}

func TestAnalyzeLintSARIFOutput(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, writeImage(t, 11), options{lintJSON: true}, nil); err != nil {
		t.Fatalf("analyze -lint-json: %v", err)
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
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if doc.Version != "2.1.0" || len(doc.Runs) != 1 || doc.Runs[0].Tool.Driver.Name != "firmres-lint" {
		t.Errorf("SARIF shape wrong: %+v", doc)
	}
	if len(doc.Runs[0].Results) != 2 {
		t.Errorf("SARIF results = %d, want 2", len(doc.Runs[0].Results))
	}
}

// timingsFooter runs analyses through one -timings sink and returns the
// footer's duration for each stage.
func timingsFooter(t *testing.T, opts options, run func(io.Writer, options, *obsSink)) map[string]string {
	t.Helper()
	opts.timings = true
	sink := newObsSink(opts)
	var out, footer bytes.Buffer
	run(&out, opts, sink)
	if strings.Contains(out.String(), "stage timings") {
		t.Errorf("wall-clock leaked into the report: %q", out.String())
	}
	sink.finish(&footer)
	got := map[string]string{}
	for _, line := range strings.Split(footer.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 {
			got[f[0]] = f[1]
		}
	}
	return got
}

// TestAnalyzeTimingsFlag runs a -j 2 batch, whose stage spans end on many
// goroutines at once.
func TestAnalyzeTimingsFlag(t *testing.T) {
	paths := []string{writeImage(t, 5), writeImage(t, 17)}
	got := timingsFooter(t, options{jobs: 2, lint: true}, func(w io.Writer, opts options, sink *obsSink) {
		if exit := runBatch(w, io.Discard, paths, opts, false, sink); exit != exitOK {
			t.Errorf("runBatch exit = %d", exit)
		}
	})
	if len(got) != len(firmres.StageNames()) || got["lint-passes"] == "0s" || got["probe-replay"] != "0s" {
		t.Errorf("footer = %v, want every stage, lint timed, probe not run", got)
	}
}

// TestAnalyzeTimingsWarmCache: -timings sums the stages this run executed,
// so a run served from the cache reports no stage time instead of
// replaying the durations of the run that filled the cache.
func TestAnalyzeTimingsWarmCache(t *testing.T) {
	path := writeImage(t, 5)
	analyzeOne := func(w io.Writer, opts options, sink *obsSink) {
		if _, err := analyzeImage(t, w, path, opts, sink); err != nil {
			t.Errorf("analyze: %v", err)
		}
	}
	opts := options{cacheDir: t.TempDir()}
	if cold := timingsFooter(t, opts, analyzeOne); cold["pinpoint-executables"] == "0s" {
		t.Errorf("cold run timed no pinpoint: %v", cold)
	}
	warm := timingsFooter(t, opts, analyzeOne)
	for _, name := range firmres.StageNames() {
		if warm[name] != "0s" {
			t.Errorf("warm run reports %q for %s, but no stage ran", warm[name], name)
		}
	}
}

// TestAnalyzeTimingsWithTrace: with -trace, every Analyze call records into
// one shared trace while the -timings observer rides along on each call;
// the footer must count each image's stage spans exactly once, so it
// agrees with the sum the trace tree shows.
func TestAnalyzeTimingsWithTrace(t *testing.T) {
	path, opts := writeImage(t, 5), options{trace: true, timings: true}
	sink := newObsSink(opts)
	a, err := newAnalyzer(opts, sink)
	if err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for i := 0; i < 3; i++ {
		if _, err := analyze(io.Discard, a, path, opts, sink, &buf); err != nil {
			t.Fatalf("analyze: %v", err)
		}
	}
	var out bytes.Buffer
	sink.finish(&out)
	var traced, footer time.Duration // tree lines read "name (1.2ms)"
	for _, line := range strings.Split(out.String(), "\n") {
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
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, writeImage(t, 21), options{}, nil); err != nil {
		t.Errorf("script-only device treated as error: %v", err)
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyzeImage(t, &out, filepath.Join(t.TempDir(), "nope.img"), options{}, nil); err == nil {
		t.Error("missing file accepted")
	}
}

// TestAnalyzePartialReportRenders: an image with one rotten executable must
// still produce a rendered report, marked PARTIAL with the skipped work
// named, and analyze must signal partial rather than fatal.
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
	var out bytes.Buffer
	partial, err := analyzeImage(t, &out, path, options{}, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !partial {
		t.Fatal("degraded analysis not reported as partial")
	}
	text := out.String()
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

// TestModelResolvedOncePerRun: a sequential run loads -model once, into
// the Analyzer its images share, so no image reads the file again (here
// it is gone once the Analyzer is built). A model that cannot be loaded is
// a usage error (exit 2) before the first image, at -j 1 as in a batch, so
// nothing reaches the cache.
func TestModelResolvedOncePerRun(t *testing.T) {
	model := writeModel(t)
	opts := options{modelPath: model}
	a, err := newAnalyzer(opts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(model); err != nil {
		t.Fatal(err)
	}
	var buf []byte
	for _, id := range []int{5, 17} {
		if _, err := analyze(io.Discard, a, writeImage(t, id), opts, nil, &buf); err != nil {
			t.Errorf("device %d after the model file was removed: %v", id, err)
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

// TestJSONOutputUnchanged runs -json over devices 1-22 at -j 1, where each
// report is indented from the JSON Analyze returns, and at -j 2, where it
// is encoded again: both must print what an Encoder with SetIndent("",
// "  ") prints for the report, device after device.
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
