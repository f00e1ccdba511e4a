package firmres

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"firmres/internal/faultinject"
	"firmres/internal/obs"
)

// spanCollector records every finished span, concurrency-safe: inner-loop
// spans end on worker-pool goroutines.
type spanCollector struct {
	mu    sync.Mutex
	spans []SpanEvent
}

func (c *spanCollector) SpanStart(SpanEvent) {}
func (c *spanCollector) SpanEnd(e SpanEvent) {
	c.mu.Lock()
	c.spans = append(c.spans, e)
	c.mu.Unlock()
}

func (c *spanCollector) names() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int)
	for _, e := range c.spans {
		out[e.Name]++
	}
	return out
}

// TestGoldenReportsTraced re-runs the 22-device corpus with every
// observability sink attached and byte-compares against the same goldens as
// the untraced run: tracing and metrics must never change what the
// analysis computes, only what it reports about itself.
func TestGoldenReportsTraced(t *testing.T) {
	for id := 1; id <= 22; id++ {
		id := id
		t.Run(fmt.Sprintf("device_%02d", id), func(t *testing.T) {
			t.Parallel()
			tr := NewTrace()
			var col spanCollector
			rec := &goldenRecord{Device: id}
			report, err := AnalyzeImage(packedDevice(t, id),
				WithLint(), WithTrace(tr), WithMetrics(), WithObserver(&col))
			switch {
			case err == nil:
				if report.Metrics == nil {
					t.Error("WithMetrics produced a nil Report.Metrics")
				}
				report.Metrics = nil // observability extras, never golden
				rec.Outcome = "report"
				rec.Report = report
			case errors.Is(err, ErrNoDeviceCloudExecutable):
				rec.Outcome = "no-device-cloud-executable"
			default:
				t.Fatalf("AnalyzeImage(%d): %v", id, err)
			}

			got, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			want, err := os.ReadFile(goldenPath(id))
			if err != nil {
				t.Fatalf("missing golden file: %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("traced report for device %d diverged from the untraced golden:\n%s",
					id, clip(string(got)))
			}

			// The trace must hold the image root span and render as valid
			// Chrome trace_event JSON.
			names := col.names()
			if names["image"] != 1 {
				t.Errorf("image spans = %d, want 1 (names: %v)", names["image"], names)
			}
			var buf bytes.Buffer
			if err := tr.WriteChromeTrace(&buf); err != nil {
				t.Fatalf("WriteChromeTrace: %v", err)
			}
			var parsed any
			if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
				t.Errorf("Chrome trace is not valid JSON: %v", err)
			}
		})
	}
}

// TestTraceSpansCoverEveryStage pins the span hierarchy for a device that
// exercises the full pipeline. The trace records the image root, a child
// per executed stage, and at least one inner-loop grandchild per stage
// that has one; an Observer on the same analysis sees the coarse tree, the
// image root and its stage children, and none of the inner loops.
func TestTraceSpansCoverEveryStage(t *testing.T) {
	tr := NewTrace()
	var col spanCollector
	if _, err := AnalyzeImage(packedDevice(t, 17), WithLint(), WithProbe(), WithTrace(tr), WithObserver(&col)); err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	traced := map[string]int{}
	spans := tr.rec.Spans()
	for _, d := range spans {
		traced[d.Name]++
	}
	if traced["image"] != 1 {
		t.Fatalf("traced image spans = %d, want 1", traced["image"])
	}
	for _, stage := range StageNames() {
		if traced[stage] != 1 {
			t.Errorf("traced stage %q spans = %d, want 1", stage, traced[stage])
		}
	}
	for _, inner := range []string{
		"candidate",     // pinpoint-executables: per candidate file
		"taint-site",    // identify-fields: per delivery site
		"mft-simplify",  // identify-fields: per message field tree
		"classify",      // recover-semantics: per tree
		"build-message", // concatenate-fields: per tree
		"check-form",    // check-forms: per message
		"lint-fn",       // lint-passes: per function
		"probe",         // probe-replay: per message probe
	} {
		if traced[inner] == 0 {
			t.Errorf("no %q inner-loop span traced (names: %v)", inner, traced)
		}
	}
	// Parentage: exactly one root, everything else links to a traced span.
	ids := make(map[int64]bool, len(spans))
	for _, d := range spans {
		ids[d.ID] = true
	}
	roots := 0
	for _, d := range spans {
		if d.Parent == 0 {
			roots++
		} else if !ids[d.Parent] {
			t.Errorf("span %q has unknown parent %d", d.Name, d.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("traced root spans = %d, want 1", roots)
	}

	// The observer: the image root and one child of it per stage.
	col.mu.Lock()
	defer col.mu.Unlock()
	observed := map[string]int{}
	var root int64
	for _, e := range col.spans {
		observed[e.Name]++
		if e.Parent == 0 {
			root = e.ID
		}
	}
	if want := len(StageNames()) + 1; observed["image"] != 1 || len(col.spans) != want {
		t.Fatalf("observer saw %v, want the image span and one per stage (%d spans)", observed, want)
	}
	for _, e := range col.spans {
		if e.Parent != 0 && (e.Parent != root || observed[e.Name] != 1) {
			t.Errorf("observer saw %q under span %d, want one child of the image span %d per stage", e.Name, e.Parent, root)
		}
	}
}

// TestBatchMetricsDeterministicAcrossWorkers extends the batch determinism
// contract to Summary.Metrics: every counter and histogram component is
// work-derived, so the merged snapshot is identical at any worker count.
// The same exact counts gate facts reuse: the stages share one counted
// store per image, so most artifact requests are hits, and lint reads
// through that store, reusing the CFGs taint and identify already built.
func TestBatchMetricsDeterministicAcrossWorkers(t *testing.T) {
	ids := make([]int, 0, 22)
	for id := 1; id <= 22; id++ {
		ids = append(ids, id)
	}
	imgs := packCorpus(t, ids)
	seq, err := AnalyzeImages(context.Background(), imgs,
		WithLint(), WithMetrics(), WithWorkers(1))
	if err != nil {
		t.Fatalf("AnalyzeImages(-j 1): %v", err)
	}
	par, err := AnalyzeImages(context.Background(), imgs,
		WithLint(), WithMetrics(), WithWorkers(8))
	if err != nil {
		t.Fatalf("AnalyzeImages(-j 8): %v", err)
	}
	if len(seq.Summary.Metrics) == 0 {
		t.Fatal("WithMetrics produced an empty Summary.Metrics")
	}
	if !reflect.DeepEqual(seq.Summary.Metrics, par.Summary.Metrics) {
		for k, v := range seq.Summary.Metrics {
			if pv, ok := par.Summary.Metrics[k]; !ok || pv != v {
				t.Errorf("metric %q: -j 1 = %d, -j 8 = %d (present=%v)", k, v, pv, ok)
			}
		}
		for k := range par.Summary.Metrics {
			if _, ok := seq.Summary.Metrics[k]; !ok {
				t.Errorf("metric %q only present at -j 8", k)
			}
		}
	}

	noLint, err := AnalyzeImages(context.Background(), imgs, WithMetrics(), WithWorkers(1))
	if err != nil {
		t.Fatalf("AnalyzeImages(no lint): %v", err)
	}
	const cfgBuilds = `facts_builds_total{artifact="cfg"}`
	requests := sumMetric(seq.Summary.Metrics, "facts_requests_total")
	builds := sumMetric(seq.Summary.Metrics, "facts_builds_total")
	baseRequests := sumMetric(noLint.Summary.Metrics, "facts_requests_total")
	lintCFGs := seq.Summary.Metrics[cfgBuilds] - noLint.Summary.Metrics[cfgBuilds]
	lintFns := seq.Summary.Metrics["lint_functions_total"]
	t.Logf("facts: %d builds / %d requests (%d without lint); lint: %d CFG builds over %d functions",
		builds, requests, baseRequests, lintCFGs, lintFns)
	if requests == 0 || builds*10 > requests {
		t.Errorf("facts store built %d artifacts for %d requests, want at most 10%%", builds, requests)
	}
	if requests <= baseRequests {
		t.Errorf("facts requests with lint = %d, without = %d: lint bypasses the counted store", requests, baseRequests)
	}
	if lintCFGs >= lintFns {
		t.Errorf("lint added %d CFG builds over %d functions: it does not reuse the shared store", lintCFGs, lintFns)
	}
}

// sumMetric totals every labelled series of the named metric.
func sumMetric(m map[string]int64, name string) int64 {
	var sum int64
	for k, v := range m {
		if n, _, _ := strings.Cut(k, "{"); n == name {
			sum += v
		}
	}
	return sum
}

// TestBatchStageSpanSums: the corpus-level §V-E breakdown is the per-stage
// sum of the stage spans an Observer sees under the image spans. Probe is
// off, so it opens none.
func TestBatchStageSpanSums(t *testing.T) {
	var col spanCollector
	br, err := AnalyzeImages(context.Background(), packCorpus(t, []int{17, 2}),
		WithLint(), WithObserver(&col))
	if err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	if n := col.names()["image"]; n != br.Summary.Reports {
		t.Errorf("image spans = %d, want one per report (%d)", n, br.Summary.Reports)
	}
	col.mu.Lock()
	defer col.mu.Unlock()
	images := map[int64]bool{}
	for _, e := range col.spans {
		images[e.ID] = e.Name == "image"
	}
	sums := map[string]time.Duration{}
	for _, e := range col.spans {
		if images[e.Parent] {
			sums[e.Name] += e.Duration()
		}
	}
	for _, stage := range StageNames() {
		if _, ran := sums[stage]; ran != (stage != "probe-replay") {
			t.Errorf("stage %q summed = %v, ran = %v", stage, sums[stage], ran)
		}
	}
}

// TestProgressCountsCacheHits: a warm batch opens no image spans, so its
// progress counts the cache spans that end as hits, one line per image,
// each naming its device.
func TestProgressCountsCacheHits(t *testing.T) {
	imgs := packCorpus(t, []int{1, 2, 3, 4})
	opts := []Option{WithWorkers(1), WithCache(t.TempDir())}
	if _, err := AnalyzeImages(context.Background(), imgs, opts...); err != nil {
		t.Fatalf("cold AnalyzeImages: %v", err)
	}
	var out strings.Builder
	br, err := AnalyzeImages(context.Background(), imgs, append(opts, WithProgress(&out))...)
	if err != nil {
		t.Fatalf("warm AnalyzeImages: %v", err)
	}
	if br.Summary.Cache.Hits != 4 {
		t.Fatalf("warm stats = %+v, want every image a hit", *br.Summary.Cache)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[3], "progress: 4/4 images (100%)") {
		t.Errorf("warm progress printed:\n%s\nwant 4 lines, the last at 4/4", out.String())
	}
	for _, l := range lines {
		if !strings.Contains(l, "[hit]") || strings.Contains(l, "image#") {
			t.Errorf("progress line %q: want a hit that names its device", l)
		}
	}
}

// TestProgressCountsUnreadablePaths: a path AnalyzePaths cannot read
// opens no span, and the progress reporter still counts it, fatal and
// unreadable, so the batch reaches N/N as the CLI's does.
func TestProgressCountsUnreadablePaths(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "device01.img")
	if err := os.WriteFile(good, packedDevice(t, 1), 0o644); err != nil {
		t.Fatal(err)
	}
	missing := filepath.Join(dir, "nope.img")
	var out strings.Builder
	br, err := AnalyzePaths(context.Background(), []string{missing, good}, WithWorkers(1), WithProgress(&out))
	if err != nil {
		t.Fatalf("AnalyzePaths: %v", err)
	}
	if br.Summary.Failed != 1 {
		t.Fatalf("summary = %+v, want the missing path fatal", br.Summary)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 2 || !strings.HasPrefix(lines[1], "progress: 2/2 images (100%)") {
		t.Fatalf("progress printed:\n%s\nwant 2 lines, the last at 2/2", out.String())
	}
	if !strings.Contains(lines[0], missing) || !strings.Contains(lines[0], "[fatal: unreadable]") {
		t.Errorf("progress line %q: want the missing path, fatal and unreadable", lines[0])
	}
}

// TestProgressCountsCorruptImages: an image that does not unpack still
// ends a root image span, fatal with its kind and without stages, so a
// batch's progress reaches N/N; every image that unpacks is named by its
// device, and its stages are children of its image span.
func TestProgressCountsCorruptImages(t *testing.T) {
	good := packCorpus(t, []int{21, 2})
	imgs := [][]byte{packedDevice(t, 17)[:400], good[0], good[1]}
	var out strings.Builder
	var col spanCollector
	if _, err := AnalyzeImages(context.Background(), imgs,
		WithWorkers(2), WithProgress(&out), WithObserver(&col)); err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[2], "progress: 3/3 images (100%)") {
		t.Fatalf("progress printed:\n%s\nwant 3 lines, the last at 3/3", out.String())
	}
	corrupt := 0
	for _, l := range lines {
		if strings.Contains(l, "[fatal: corrupt-image]") {
			corrupt++
		} else if strings.Contains(l, "image#") {
			t.Errorf("progress line %q: an image that unpacked is not named by its device", l)
		}
	}
	if corrupt != 1 {
		t.Errorf("progress printed %d corrupt-image lines, want 1:\n%s", corrupt, out.String())
	}

	col.mu.Lock()
	defer col.mu.Unlock()
	images := map[int64]SpanEvent{}
	stages := map[int64]int{}
	for _, e := range col.spans {
		if e.Parent == 0 && e.Name == "image" {
			images[e.ID] = e
		}
	}
	for _, e := range col.spans {
		if e.Parent == 0 {
			continue
		}
		if _, ok := images[e.Parent]; !ok {
			t.Errorf("span %q is not a child of an image span", e.Name)
		}
		stages[e.Parent]++
	}
	if len(images) != len(imgs) {
		t.Fatalf("observer saw %d image spans, want %d", len(images), len(imgs))
	}
	for id, e := range images {
		if e.Status == "fatal: corrupt-image" {
			if e.Attr("device") != "" || stages[id] != 0 {
				t.Errorf("corrupt image span names %q and has %d stages, want neither", e.Attr("device"), stages[id])
			}
		} else if e.Attr("device") == "" || stages[id] == 0 {
			t.Errorf("image span [%s] names %q and has %d stages, want its device and its stages", e.Status, e.Attr("device"), stages[id])
		}
	}
}

// TestFaultInjectionCounters seeds corruption and checks both counters the
// observability layer hangs off it: the injector's own trip counter, and
// the pipeline's per-kind degradation counter in Report.Metrics.
func TestFaultInjectionCounters(t *testing.T) {
	data := packedDevice(t, 17)

	met := obs.NewMetrics()
	mode := faultinject.Modes()[0]
	if _, err := faultinject.Corrupt(data, mode, 1, faultinject.WithMetrics(met)); err != nil {
		t.Fatalf("Corrupt: %v", err)
	}
	key := obs.Key("faultinject_trips_total", "mode", string(mode))
	if got := met.Snapshot()[key]; got != 1 {
		t.Errorf("%s = %d, want 1", key, got)
	}

	// Sweep modes and seeds until a corruption degrades (rather than kills)
	// the analysis, then check every recorded error shows up in the
	// errors_total counters with its kind and stage.
	degraded := 0
	for _, mode := range faultinject.Modes() {
		for seed := int64(0); seed < 4; seed++ {
			corrupted, err := faultinject.Corrupt(data, mode, seed)
			if err != nil {
				t.Fatalf("%s seed %d: Corrupt: %v", mode, seed, err)
			}
			report, err := AnalyzeImage(corrupted, WithMetrics())
			if err != nil || !report.Partial() {
				continue
			}
			degraded++
			if counted := sumMetric(report.Metrics, "errors_total"); counted != int64(len(report.Errors)) {
				t.Errorf("%s seed %d: errors_total sums to %d, report has %d errors\nmetrics: %v",
					mode, seed, counted, len(report.Errors), report.Metrics)
			}
		}
	}
	if degraded == 0 {
		t.Error("no corruption mode degraded the analysis; counter check never ran")
	}
}
