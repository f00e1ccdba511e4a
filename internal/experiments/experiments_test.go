package experiments

import (
	"testing"

	"firmres/internal/nn"
)

// fullRun is shared across tests (building and analyzing 22 devices once).
var fullRun *Run

func getRun(t *testing.T) *Run {
	t.Helper()
	if fullRun == nil {
		r, err := NewRun(Config{})
		if err != nil {
			t.Fatalf("NewRun: %v", err)
		}
		fullRun = r
	}
	return fullRun
}

func TestTableIShape(t *testing.T) {
	rows := TableI()
	if len(rows) != 22 {
		t.Fatalf("Table I has %d rows, want 22", len(rows))
	}
	if rows[10].Model != "Teltonika: RUT241" {
		t.Errorf("row 11 model = %q", rows[10].Model)
	}
	categories := map[string]bool{}
	for _, r := range rows {
		categories[r.Category] = true
	}
	if len(categories) != 7 {
		t.Errorf("device categories = %d, want 7", len(categories))
	}
}

func TestTableIIReproducesPaperShape(t *testing.T) {
	run := getRun(t)
	res := TableII(run)

	if len(res.Skipped) != 2 {
		t.Errorf("skipped devices = %v, want [21 22] (script-only)", res.Skipped)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("Table II rows = %d, want 20", len(res.Rows))
	}
	// Message counts must match the planted calibration exactly: the
	// pipeline must not drop or invent messages.
	for _, row := range res.Rows {
		if row.MsgIdentified != row.PaperMsgIdentified {
			t.Errorf("device %d: identified %d messages, paper %d",
				row.DeviceID, row.MsgIdentified, row.PaperMsgIdentified)
		}
		if row.MsgValid != row.PaperMsgValid {
			t.Errorf("device %d: %d valid messages, paper %d",
				row.DeviceID, row.MsgValid, row.PaperMsgValid)
		}
		if row.FieldsIdent != row.PaperFieldsIdent {
			t.Errorf("device %d: %d fields identified, paper %d",
				row.DeviceID, row.FieldsIdent, row.PaperFieldsIdent)
		}
		if row.FieldsConfirmed != row.PaperFieldsConfirmed {
			t.Errorf("device %d: %d fields confirmed, paper %d",
				row.DeviceID, row.FieldsConfirmed, row.PaperFieldsConfirmed)
		}
	}
	if res.TotalIdentified != 281 || res.TotalValid != 246 {
		t.Errorf("totals = %d identified / %d valid, paper 281/246",
			res.TotalIdentified, res.TotalValid)
	}
	if res.TotalFieldsIdent != 2019 || res.TotalFieldsConf != 1785 {
		t.Errorf("field totals = %d/%d, paper 2019/1785",
			res.TotalFieldsIdent, res.TotalFieldsConf)
	}
	// Field-identification accuracy: paper reports 88.41%.
	if res.FieldAccuracy < 0.87 || res.FieldAccuracy > 0.90 {
		t.Errorf("field accuracy = %.4f, paper 0.8841", res.FieldAccuracy)
	}
	// Semantics accuracy should be high-80s/low-90s (paper: 91.93%).
	if res.SemanticsAccuracy < 0.85 {
		t.Errorf("semantics accuracy = %.4f, paper 0.9193", res.SemanticsAccuracy)
	}
	// Cluster columns: sprintf devices have counts, others none; device 11
	// reports zeros.
	for _, row := range res.Rows {
		switch {
		case row.DeviceID == 11:
			if row.Clusters == nil || row.Clusters[0.5] != 0 {
				t.Errorf("device 11 clusters = %v, want zeros", row.Clusters)
			}
		case row.DeviceID <= 7 || row.DeviceID == 9:
			if row.Clusters != nil {
				t.Errorf("device %d reports clusters %v, want none", row.DeviceID, row.Clusters)
			}
		default:
			if row.Clusters == nil || row.Clusters[0.7] == 0 {
				t.Errorf("device %d clusters = %v, want non-zero", row.DeviceID, row.Clusters)
			}
		}
	}
}

func TestTableIIIReproducesPaperShape(t *testing.T) {
	run := getRun(t)
	res := TableIII(run)
	if res.Flagged != 26 {
		t.Errorf("flagged messages = %d, paper 26", res.Flagged)
	}
	if res.Confirmed != 15 {
		t.Errorf("confirmed flagged messages = %d, paper 15", res.Confirmed)
	}
	if res.FalsePositives != 11 {
		t.Errorf("false positives = %d, paper 11", res.FalsePositives)
	}
	if len(res.Vulns) != 14 {
		t.Errorf("distinct vulnerabilities = %d, paper 14", len(res.Vulns))
	}
	if res.KnownVulns != 1 {
		t.Errorf("known vulnerabilities = %d, paper 1", res.KnownVulns)
	}
	if res.VulnDevices != 8 {
		t.Errorf("vulnerable devices = %d, paper 8", res.VulnDevices)
	}
}

func TestPerfBreakdownShape(t *testing.T) {
	run := getRun(t)
	perf := Perf(run)
	var sum float64
	for _, s := range perf.StageShare {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("stage shares sum to %v", sum)
	}
	// Shape: the analysis-heavy stages (pinpointing, taint, semantics)
	// dominate; concatenation and form checking are cheap (paper: 9.96% and
	// 4.81%). The split between taint and semantics depends on the
	// substrate (Ghidra decompilation vs in-process lifting; GPU inference
	// vs CPU classification) — see EXPERIMENTS.md.
	analysis := perf.StageShare[0] + perf.StageShare[1] + perf.StageShare[2]
	if analysis < 0.75 {
		t.Errorf("analysis-stage share = %.2f, want >= 0.75 (paper 85.2%%)", analysis)
	}
	if perf.StageShare[4] > 0.15 {
		t.Errorf("form-check share = %.2f, want cheap (paper 4.81%%)", perf.StageShare[4])
	}
	if perf.MinTotal <= 0 || perf.MaxTotal < perf.MinTotal {
		t.Errorf("min/max totals = %v/%v", perf.MinTotal, perf.MaxTotal)
	}
	if len(perf.PerDevice) != 20 {
		t.Errorf("per-device timings = %d, want 20", len(perf.PerDevice))
	}
}

func TestTrainedClassifierAccuracy(t *testing.T) {
	if testing.Short() {
		t.Skip("model training skipped in -short mode")
	}
	model, valAcc, testAcc, err := TrainClassifier(Config{
		TrainingDevices: 8,
		Model:           nn.Config{EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 5, Seed: 7},
	})
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	if model == nil {
		t.Fatal("no model")
	}
	// The paper reports 92.23%/91.74%; the synthetic vocabulary is cleanly
	// separable, so anything below 85% indicates a training regression.
	if valAcc < 0.85 || testAcc < 0.85 {
		t.Errorf("model accuracy val=%.3f test=%.3f, want >= 0.85", valAcc, testAcc)
	}
}

func TestTableIVComparison(t *testing.T) {
	run := getRun(t)
	rows, err := TableIV(run)
	if err != nil {
		t.Fatalf("TableIV: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("Table IV rows = %d, want 3", len(rows))
	}
	fr, leak, scan := rows[0], rows[1], rows[2]
	// FIRMRES tests the most interfaces (paper: 246 vs 32 vs 157).
	if fr.Interfaces != 246 {
		t.Errorf("FIRMRES interfaces = %d, paper 246", fr.Interfaces)
	}
	if fr.Interfaces <= leak.Interfaces || fr.Interfaces <= scan.Interfaces {
		t.Errorf("FIRMRES (%d) should test more interfaces than LeakScope (%d) and APIScanner (%d)",
			fr.Interfaces, leak.Interfaces, scan.Interfaces)
	}
	// Static recovery accuracy below the dynamic tools' 100% (paper: 87.5%).
	if fr.Accuracy < 0.85 || fr.Accuracy >= 0.90 {
		t.Errorf("FIRMRES accuracy = %.4f, paper 0.875", fr.Accuracy)
	}
	if leak.Accuracy != 1.0 || scan.Accuracy != 1.0 {
		t.Errorf("dynamic baselines accuracy = %.2f/%.2f, want 1.0", leak.Accuracy, scan.Accuracy)
	}
}
