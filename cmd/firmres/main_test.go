package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"firmres"
	"firmres/internal/corpus"
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

func TestAnalyzeTextOutput(t *testing.T) {
	var out bytes.Buffer
	partial, err := analyze(&out, writeImage(t, 5), options{}, nil)
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
	if _, err := analyze(&out, writeImage(t, 5), options{asJSON: true}, nil); err != nil {
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
		if _, err := analyze(&out, path, options{lint: true}, nil); err != nil {
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
	if _, err := analyze(&out, writeImage(t, 11), options{lintRules: "dead-store"}, nil); err != nil {
		t.Fatalf("analyze -lint-rules: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "dead-store") {
		t.Errorf("selected rule missing: %q", text)
	}
	if strings.Contains(text, "hardcoded-secret svc_auth_fallback") {
		t.Errorf("rule filter leaked other rules: %q", text)
	}
	if _, err := analyze(&out, writeImage(t, 11), options{lintRules: "bogus"}, nil); err == nil {
		t.Error("unknown rule accepted")
	}
}

func TestAnalyzeLintCleanDevice(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyze(&out, writeImage(t, 4), options{lint: true}, nil); err != nil {
		t.Fatalf("analyze -lint: %v", err)
	}
	if !strings.Contains(out.String(), "lint: clean") {
		t.Errorf("clean device not reported clean: %q", out.String())
	}
}

func TestAnalyzeLintSARIFOutput(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyze(&out, writeImage(t, 11), options{lintJSON: true}, nil); err != nil {
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
		if exit := runBatch(w, paths, opts, false, sink); exit != exitOK {
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
		if _, err := analyze(w, path, opts, sink); err != nil {
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

// TestAnalyzeTimingsWithTrace: a -trace recorder keeps every earlier
// Analyze call's observers attached, yet each image's stage spans must be
// counted once.
func TestAnalyzeTimingsWithTrace(t *testing.T) {
	path, opts := writeImage(t, 5), options{trace: true, timings: true}
	sink := newObsSink(opts)
	for i := 0; i < 3; i++ {
		if _, err := analyze(io.Discard, path, opts, sink); err != nil {
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
	if _, err := analyze(&out, writeImage(t, 21), options{}, nil); err != nil {
		t.Errorf("script-only device treated as error: %v", err)
	}
}

func TestAnalyzeMissingFile(t *testing.T) {
	var out bytes.Buffer
	if _, err := analyze(&out, filepath.Join(t.TempDir(), "nope.img"), options{}, nil); err == nil {
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
	partial, err := analyze(&out, path, options{}, nil)
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

// TestAnalyzeStageTimeoutFlag: a pathologically small budget still yields a
// rendered partial result, never a hang or crash.
func TestAnalyzeStageTimeoutFlag(t *testing.T) {
	var out bytes.Buffer
	partial, err := analyze(&out, writeImage(t, 5), options{stageTimeout: time.Nanosecond}, nil)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	if !partial {
		t.Error("nanosecond budget produced a clean report")
	}
	if !strings.Contains(out.String(), "stage-timeout") {
		t.Errorf("timeout not rendered: %q", out.String())
	}
}
