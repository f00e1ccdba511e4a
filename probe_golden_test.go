package firmres

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"firmres/internal/corpus"
)

// probeGoldenRecord is the stable projection of one device's probe stage:
// the exploitability report against a healthy simulated cloud.
type probeGoldenRecord struct {
	Device  int          `json:"device"`
	Outcome string       `json:"outcome"` // "probed" or "no-device-cloud-executable"
	Probe   *ProbeReport `json:"probe,omitempty"`
}

func probeGoldenPath(id int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("probe_device_%02d.json", id))
}

// TestProbeGoldenReports locks the probe stage's exploitability verdicts
// for the whole corpus (chaos off). Regenerate with `go test -run
// TestProbeGoldenReports -update .` after an intentional behavior change.
func TestProbeGoldenReports(t *testing.T) {
	for id := 1; id <= 22; id++ {
		id := id
		t.Run(fmt.Sprintf("device_%02d", id), func(t *testing.T) {
			if !*updateGolden {
				t.Parallel()
			}
			img, err := corpus.BuildImage(corpus.Device(id))
			if err != nil {
				t.Fatalf("BuildImage(%d): %v", id, err)
			}
			rec := &probeGoldenRecord{Device: id}
			report, err := AnalyzeImage(img.Pack(), WithProbe())
			switch {
			case err == nil:
				rec.Outcome = "probed"
				rec.Probe = report.Probe
				if rec.Probe == nil {
					t.Fatalf("device %d: probe enabled but report.Probe is nil (errors: %+v)", id, report.Errors)
				}
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
			path := probeGoldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run `go test -run TestProbeGoldenReports -update .`): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("probe report for device %d diverged from %s;\nregenerate with -update if intentional.\ngot:\n%s", id, path, clip(string(got)))
			}
		})
	}
}

// TestProbeChaosSeedDeterminism is the public-API half of the determinism
// contract: identical seed and chaos modes yield a byte-identical report,
// run to run, even at different prober counts.
func TestProbeChaosSeedDeterminism(t *testing.T) {
	img := packedDevice(t, 17)
	var dumps [][]byte
	for _, probers := range []int{4, 64} {
		report, err := AnalyzeImage(img,
			WithProbe(), WithProbeChaos("all"), WithProbeSeed(42),
			WithProbeProbers(probers), WithProbeTimeout(250*time.Millisecond))
		if err != nil {
			t.Fatalf("AnalyzeImage(probers=%d): %v", probers, err)
		}
		dump, err := json.Marshal(report)
		if err != nil {
			t.Fatal(err)
		}
		dumps = append(dumps, dump)
	}
	if string(dumps[0]) != string(dumps[1]) {
		t.Fatalf("chaos reports diverge across runs/prober counts:\n%s\nvs\n%s",
			clip(string(dumps[0])), clip(string(dumps[1])))
	}
	// Under chaos every message must still end terminally classified.
	var report Report
	if err := json.Unmarshal(dumps[0], &report); err != nil {
		t.Fatal(err)
	}
	terminal := report.Probe.Counts[ProbeGranted] + report.Probe.Counts[ProbeDenied] +
		report.Probe.Counts[ProbeInvalid] + report.Probe.Counts[ProbeFailed]
	if terminal != report.Probe.Probed || report.Probe.Probed == 0 {
		t.Errorf("terminal %d of %d probed", terminal, report.Probe.Probed)
	}
}

func TestProbeUnknownChaosModeErrors(t *testing.T) {
	_, err := AnalyzeImage(packedDevice(t, 17), WithProbe(), WithProbeChaos("gremlins"))
	if err == nil || !strings.Contains(err.Error(), "unknown probe chaos mode") {
		t.Fatalf("err = %v, want unknown-chaos-mode configuration error", err)
	}
}

// TestProbeMetricsExposed pins the observability satellite: probe counters
// surface through WithMetrics when the stage runs and are wholly absent
// when it does not.
func TestProbeMetricsExposed(t *testing.T) {
	img := packedDevice(t, 17)
	report, err := AnalyzeImage(img, WithProbe(), WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if report.Metrics["probe_attempts_total"] == 0 {
		t.Error("probe_attempts_total missing from metrics snapshot")
	}
	var results int64
	for _, class := range []string{ProbeGranted, ProbeDenied, ProbeInvalid, ProbeFailed} {
		results += report.Metrics[`probe_results_total{class="`+class+`"}`]
	}
	if results != int64(report.Probe.Probed) {
		t.Errorf("probe_results_total sums to %d, want %d", results, report.Probe.Probed)
	}

	plain, err := AnalyzeImage(img, WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Probe != nil {
		t.Error("probe report present without WithProbe")
	}
	for key := range plain.Metrics {
		if strings.HasPrefix(key, "probe_") {
			t.Errorf("probe metric %q leaked into a probe-less run", key)
		}
	}
}

// TestProbeBatchSummary checks the fleet rollup in BatchReport.Summary.
func TestProbeBatchSummary(t *testing.T) {
	var imgs [][]byte
	for _, id := range []int{1, 2, 17} {
		imgs = append(imgs, packedDevice(t, id))
	}
	br, err := AnalyzeImages(context.Background(), imgs, WithProbe())
	if err != nil {
		t.Fatal(err)
	}
	s := br.Summary.Probe
	if s == nil {
		t.Fatal("batch summary has no probe rollup")
	}
	var probed, vulnerable int
	for _, res := range br.Images {
		if res.Report == nil || res.Report.Probe == nil {
			t.Fatalf("image result missing probe report: %+v", res)
		}
		probed += res.Report.Probe.Probed
		vulnerable += res.Report.Probe.Vulnerable
	}
	if s.Probed != probed || s.Vulnerable != vulnerable {
		t.Errorf("rollup = %+v, want probed %d vulnerable %d", s, probed, vulnerable)
	}
	if s.Granted+s.Denied+s.Invalid+s.Failed != s.Probed {
		t.Errorf("rollup classes do not sum to probed: %+v", s)
	}
}
