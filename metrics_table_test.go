package firmres

import (
	"context"
	"strings"
	"testing"

	"firmres/internal/cloud/chaos"
	"firmres/internal/cloud/probe"
	"firmres/internal/errdefs"
	"firmres/internal/faultinject"
	"firmres/internal/formcheck"
	"firmres/internal/lint"
	"firmres/internal/obs"
	"firmres/internal/semantics"
)

// TestEveryMetricDeclared drives every path that emits a metric into
// registries, which panic on an identity the metric table does not
// declare. Each labelled metric is looked up with every value the code
// that emits it can produce, taken from that code; then the corpus, its
// stripped twins and an image corrupted by each fault-injection mode run
// end to end with lint and metrics, and three devices with the probe
// stage under every chaos fault.
func TestEveryMetricDeclared(t *testing.T) {
	met := obs.NewMetrics()
	for _, stage := range StageNames() {
		for _, kind := range errdefs.Kinds() {
			met.Counter("errors_total", "kind", kind, "stage", stage)
		}
	}
	for _, kind := range errdefs.Kinds() {
		met.Counter("probe_failed_total", "kind", kind)
	}
	for _, label := range append(semantics.Labels, "") {
		met.Counter("message_fields_total", "label", label)
	}
	for _, label := range semantics.Labels {
		met.Counter("semantics_classified_total", "label", label)
	}
	for _, rule := range lint.Rules() {
		met.Counter("lint_diags_total", "rule", rule)
	}
	for v := formcheck.Verdict(0); !strings.HasPrefix(v.String(), "verdict?"); v++ {
		met.Counter("formcheck_flagged_total", "verdict", v.String())
	}
	for _, class := range []string{probe.ClassGranted, probe.ClassDenied, probe.ClassInvalid, probe.ClassFailed} {
		met.Counter("probe_results_total", "class", class)
	}
	for _, fault := range append(chaos.Modes(), "mqtt-reject", "mqtt-drop") {
		met.Counter("probe_chaos_trips_total", "fault", fault)
	}
	for _, mode := range faultinject.Modes() {
		met.Counter("faultinject_trips_total", "mode", string(mode))
	}

	var imgs [][]byte
	for _, g := range goldenCrawlSet(t) {
		imgs = append(imgs, g.data)
	}
	data := packedDevice(t, 17)
	for _, mode := range faultinject.Modes() {
		corrupted, err := faultinject.Corrupt(data, mode, 1, faultinject.WithMetrics(met))
		if err != nil {
			t.Fatalf("%s: Corrupt: %v", mode, err)
		}
		imgs = append(imgs, corrupted)
	}
	for _, run := range []struct {
		imgs [][]byte
		opts []Option
	}{
		{imgs, []Option{WithLint(), WithMetrics()}},
		{[][]byte{packedDevice(t, 1), packedDevice(t, 5), packedDevice(t, 11)},
			[]Option{WithMetrics(), WithProbe(), WithProbeChaos("all"), WithProbeSeed(42)}},
	} {
		br, err := AnalyzeImages(context.Background(), run.imgs, run.opts...)
		if err != nil {
			t.Fatal(err)
		}
		if br.Summary.Reports == 0 || len(br.Summary.Metrics) == 0 {
			t.Fatalf("a run produced %d reports and %d metrics", br.Summary.Reports, len(br.Summary.Metrics))
		}
	}
}
