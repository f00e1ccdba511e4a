package firmres

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"firmres/internal/corpus"
)

// strippedGoldenPath is the golden file of one device's stripped-mode
// analysis, kept separate from the symbol-full goldens so the two suites
// can never overwrite each other.
func strippedGoldenPath(id int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("stripped_device_%02d.json", id))
}

func strippedGoldenRecordFor(t *testing.T, id int) *goldenRecord {
	t.Helper()
	img, err := corpus.BuildStrippedImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildStrippedImage(%d): %v", id, err)
	}
	rec := &goldenRecord{Device: id}
	report, err := AnalyzeImage(img.Pack(), WithLint(), WithStrippedMode())
	switch {
	case err == nil:
		rec.Outcome = "report"
		rec.Report = report
	case errors.Is(err, ErrNoDeviceCloudExecutable):
		rec.Outcome = "no-device-cloud-executable"
	default:
		t.Fatalf("AnalyzeImage(stripped %d): %v", id, err)
	}
	return rec
}

// TestStrippedGoldenReports locks the end-to-end stripped-mode analysis for
// the whole corpus, exactly like TestGoldenReports does for symbol-full
// images. Recovered function names (fn_%06x) and extern bindings are
// deterministic, so the full report is golden-able. Regenerate with
// `go test -run TestStrippedGoldenReports -update .`.
func TestStrippedGoldenReports(t *testing.T) {
	for id := 1; id <= 22; id++ {
		id := id
		t.Run(fmt.Sprintf("device_%02d", id), func(t *testing.T) {
			if !*updateGolden {
				t.Parallel()
			}
			rec := strippedGoldenRecordFor(t, id)
			got, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := strippedGoldenPath(id)
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
				t.Fatalf("missing stripped golden (run `go test -run TestStrippedGoldenReports -update .`): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("stripped report for device %d diverged from %s;\nregenerate with -update if intentional.\ngot:\n%s", id, path, clip(string(got)))
			}
		})
	}
}

// verdictProfile reduces a report to the device-level exploitability
// outcome: the sorted multiset of per-message verdicts plus the flagged
// count. Function names and field orderings differ between symbol-full and
// recovered runs by construction; the exploitability verdicts must not.
func verdictProfile(rec *goldenRecord) string {
	if rec.Outcome != "report" {
		return rec.Outcome
	}
	var vs []string
	flagged := 0
	for _, m := range rec.Report.Messages {
		vs = append(vs, m.Verdict)
		if m.Flagged {
			flagged++
		}
	}
	sort.Strings(vs)
	return fmt.Sprintf("flagged=%d verdicts=%s", flagged, strings.Join(vs, ","))
}

// TestStrippedVerdictParity is the tentpole acceptance gate: stripped-mode
// analysis must reproduce the symbol-full per-device exploitability
// verdicts for at least 20 of the 22 corpus devices, and every divergence
// must be explained by the recovery report (low-confidence bindings or
// notes) rather than silent.
func TestStrippedVerdictParity(t *testing.T) {
	matched, total := 0, 0
	for id := 1; id <= 22; id++ {
		total++
		full := goldenRecordFor(t, id)
		stripped := strippedGoldenRecordFor(t, id)
		fp, sp := verdictProfile(full), verdictProfile(stripped)
		if fp == sp {
			matched++
			continue
		}
		t.Logf("device %02d diverged:\n  symbol-full: %s\n  stripped:    %s", id, fp, sp)
		// Divergence is tolerated only when the recovery report explains it.
		if stripped.Report == nil || stripped.Report.Recovery == nil {
			t.Errorf("device %02d diverged with no recovery report to explain it", id)
			continue
		}
		rec := stripped.Report.Recovery
		explained := len(rec.Notes) > 0
		for _, b := range rec.Bindings {
			if b.Name == "" || b.Confidence < 0.2 {
				explained = true
			}
		}
		if !explained {
			t.Errorf("device %02d diverged but recovery report shows no unbound or low-confidence externs", id)
		}
	}
	t.Logf("stripped verdict parity: %d/%d devices", matched, total)
	if matched < 20 {
		t.Errorf("stripped-mode verdict parity %d/%d, need >= 20/22", matched, total)
	}
}

// TestStrippedDeterminism runs the stripped corpus twice and requires
// byte-identical reports — recovery must not leak map-iteration or
// scheduling order into bindings, notes, or messages.
func TestStrippedDeterminism(t *testing.T) {
	for id := 1; id <= 22; id++ {
		a, err := json.Marshal(strippedGoldenRecordFor(t, id))
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(strippedGoldenRecordFor(t, id))
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("device %02d: stripped analysis not deterministic across runs", id)
		}
	}
}
