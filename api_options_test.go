package firmres

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"firmres/internal/corpus"
	"firmres/internal/experiments"
	"firmres/internal/nn"
)

// trainTinyModel fits a small classifier for the option tests.
func trainTinyModel(t *testing.T) *nn.Model {
	t.Helper()
	model, _, _, err := experiments.TrainClassifier(experiments.Config{
		TrainingDevices: 8,
		Model:           nn.Config{EmbedDim: 16, Filters: 8, MaxLen: 48, Epochs: 5, Seed: 5},
	})
	if err != nil {
		t.Fatalf("TrainClassifier: %v", err)
	}
	return model
}

func TestWithModelOption(t *testing.T) {
	model := trainTinyModel(t)
	report, err := AnalyzeImage(packedDevice(t, 17), WithModel(model))
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	// The model-backed run must still recover identifier semantics.
	var sawIdentifier bool
	for _, m := range report.Messages {
		for _, f := range m.Fields {
			if f.Semantics == "Dev-Identifier" {
				sawIdentifier = true
			}
		}
	}
	if !sawIdentifier {
		t.Error("model classifier recovered no Dev-Identifier fields")
	}
}

func TestWithModelFileOption(t *testing.T) {
	model := trainTinyModel(t)
	path := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	report, err := AnalyzeImage(packedDevice(t, 5), WithModelFile(path))
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	if len(report.Messages) == 0 {
		t.Error("no messages with model file")
	}
	// A missing or corrupt model file is a configuration error, never a
	// silent fallback to the keyword classifier.
	missing := filepath.Join(t.TempDir(), "missing.gob")
	if _, err := AnalyzeImage(packedDevice(t, 5), WithModelFile(missing)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing model file: err = %v, want os.ErrNotExist", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.gob")
	if err := os.WriteFile(bad, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := AnalyzeImage(packedDevice(t, 5), WithModelFile(bad)); err == nil {
		t.Error("corrupt model file accepted")
	}
	if _, _, err := CachedReport(packedDevice(t, 5), WithModelFile(bad), WithCache(t.TempDir())); err == nil {
		t.Error("CachedReport accepted a corrupt model file")
	}
}

func TestWithKeywordClassifierExplicit(t *testing.T) {
	if _, err := AnalyzeImage(packedDevice(t, 5), WithKeywordClassifier()); err != nil {
		t.Errorf("AnalyzeImage: %v", err)
	}
}

func TestWithMinHandlerScore(t *testing.T) {
	// An impossible threshold filters every handler: identification fails.
	_, err := AnalyzeImage(packedDevice(t, 5), WithMinHandlerScore(1.1))
	if err == nil {
		t.Error("threshold 1.1 still identified a device-cloud executable")
	}
}

func TestReportFlaggedDetailSurfaces(t *testing.T) {
	report, err := AnalyzeImage(packedDevice(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	var sawKnownVuln bool
	for _, m := range report.Messages {
		if m.Function == "msg_rms_register" {
			if !m.Flagged || m.Verdict != "missing-primitives" {
				t.Errorf("rms_register verdict = %q flagged=%v", m.Verdict, m.Flagged)
			}
			sawKnownVuln = true
		}
	}
	if !sawKnownVuln {
		t.Error("device 11's registration message missing from report")
	}
	_ = corpus.Device(11)
}
