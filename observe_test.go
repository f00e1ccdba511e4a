package firmres

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"reflect"
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
// exercises the full pipeline: the image root, a child per executed stage,
// and at least one inner-loop grandchild per stage that has one.
func TestTraceSpansCoverEveryStage(t *testing.T) {
	var col spanCollector
	if _, err := AnalyzeImage(packedDevice(t, 17), WithLint(), WithProbe(), WithObserver(&col)); err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	names := col.names()
	if names["image"] != 1 {
		t.Fatalf("image spans = %d, want 1", names["image"])
	}
	for _, stage := range StageNames() {
		if names[stage] != 1 {
			t.Errorf("stage %q spans = %d, want 1", stage, names[stage])
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
		if names[inner] == 0 {
			t.Errorf("no %q inner-loop span recorded (names: %v)", inner, names)
		}
	}

	// Parentage: exactly one root, everything else links to a seen span.
	col.mu.Lock()
	defer col.mu.Unlock()
	ids := make(map[int64]bool, len(col.spans))
	roots := 0
	for _, e := range col.spans {
		ids[e.ID] = true
	}
	for _, e := range col.spans {
		if e.Parent == 0 {
			roots++
		} else if !ids[e.Parent] {
			t.Errorf("span %q has unknown parent %d", e.Name, e.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("root spans = %d, want 1", roots)
	}
}

// TestBatchMetricsDeterministicAcrossWorkers extends the batch determinism
// contract to Summary.Metrics: every counter and histogram component is
// work-derived, so the merged snapshot is identical at any worker count.
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
			var counted int64
			for k, v := range report.Metrics {
				if name, _ := splitMetricKey(k); name == "errors_total" {
					counted += v
				}
			}
			if counted != int64(len(report.Errors)) {
				t.Errorf("%s seed %d: errors_total sums to %d, report has %d errors\nmetrics: %v",
					mode, seed, counted, len(report.Errors), report.Metrics)
			}
		}
	}
	if degraded == 0 {
		t.Error("no corruption mode degraded the analysis; counter check never ran")
	}
}

// splitMetricKey separates a snapshot key into name and label parts.
func splitMetricKey(key string) (name, labels string) {
	for i := 0; i < len(key); i++ {
		if key[i] == '{' {
			return key[:i], key[i:]
		}
	}
	return key, ""
}
