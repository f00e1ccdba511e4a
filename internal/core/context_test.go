package core

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"firmres/internal/corpus"
	"firmres/internal/errdefs"
	"firmres/internal/image"
	"firmres/internal/slices"
)

func buildImage(t *testing.T, id int) *image.Image {
	t.Helper()
	img, err := corpus.BuildImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildImage: %v", err)
	}
	return img
}

func TestAnalyzeImageContextMatchesAnalyzeImage(t *testing.T) {
	img := buildImage(t, 17)
	res, err := New(Options{}).AnalyzeImageContext(context.Background(), img)
	if err != nil {
		t.Fatalf("AnalyzeImageContext: %v", err)
	}
	if res.Partial() {
		t.Errorf("clean run reported partial: %v", res.Errors)
	}
	base, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	if len(res.Messages) != len(base.Messages) || res.Executable != base.Executable {
		t.Errorf("context path diverged: %d/%q vs %d/%q",
			len(res.Messages), res.Executable, len(base.Messages), base.Executable)
	}
}

func TestAnalyzeImageContextExpiredDeadline(t *testing.T) {
	img := buildImage(t, 17)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	start := time.Now()
	_, err := New(Options{}).AnalyzeImageContext(ctx, img)
	if !errors.Is(err, errdefs.ErrStageTimeout) {
		t.Fatalf("err = %v, want ErrStageTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, does not wrap context.DeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("expired context took %v to abort", d)
	}
}

func TestAnalyzeImageContextCancelled(t *testing.T) {
	img := buildImage(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(Options{}).AnalyzeImageContext(ctx, img)
	if !errors.Is(err, errdefs.ErrStageTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrStageTimeout wrapping context.Canceled", err)
	}
}

// cancelClassifier cancels the caller's context on its first call and
// sleeps on every call, so the semantics stage is still classifying when
// the cancellation lands.
type cancelClassifier struct {
	cancel context.CancelFunc
	calls  atomic.Int32
}

func (c *cancelClassifier) Classify(slices.Slice) (string, float64) {
	if c.calls.Add(1) == 1 {
		c.cancel()
	}
	time.Sleep(2 * time.Millisecond)
	return "None", 0
}

// TestCancelledStageLeavesNoWork: a caller context that ends inside a
// stage is fatal, nothing the cut-short stage computed is committed, and
// the stage has stopped by the time the analysis returns.
func TestCancelledStageLeavesNoWork(t *testing.T) {
	img := buildImage(t, 17)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cls := &cancelClassifier{cancel: cancel}
	res, err := New(Options{Classifier: cls}).AnalyzeImageContext(ctx, img)
	returned := cls.calls.Load()
	if !errors.Is(err, errdefs.ErrStageTimeout) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrStageTimeout wrapping context.Canceled", err)
	}
	// Device 17 has cluster counts and messages, so either one here would
	// come from the cut-short semantics stage or a stage after it.
	if len(res.Messages) != 0 || res.ClusterCounts != nil {
		t.Errorf("cancelled analysis committed %d messages and cluster counts %v", len(res.Messages), res.ClusterCounts)
	}
	time.Sleep(20 * time.Millisecond)
	if late := cls.calls.Load() - returned; late != 0 {
		t.Errorf("the classifier ran %d more times after the analysis returned", late)
	}
}

// panicClassifier crashes on the first classification.
type panicClassifier struct{}

func (panicClassifier) Classify(slices.Slice) (string, float64) { panic("classifier bug") }

func TestStagePanicIsRecovered(t *testing.T) {
	img := buildImage(t, 17)
	res, err := New(Options{Classifier: panicClassifier{}}).
		AnalyzeImageContext(context.Background(), img)
	if err != nil {
		t.Fatalf("panic escaped as fatal error: %v", err)
	}
	var hit bool
	for _, ae := range res.Errors {
		if errors.Is(ae.Err, errdefs.ErrStagePanic) && strings.Contains(ae.Err.Error(), "classifier bug") {
			hit = true
		}
	}
	if !hit {
		t.Errorf("recovered panic not recorded: %v", res.Errors)
	}
	if len(res.Messages) == 0 {
		t.Error("pipeline stopped after recovered panic")
	}
}

func TestCorruptExecutableIsSkippedNotFatal(t *testing.T) {
	img := buildImage(t, 17)
	// A binary that advertises the FRB1 magic but truncates mid-header
	// must be skipped with a recorded error, not sink the image.
	img.AddFile("/bin/rotten", image.ModeExec, []byte("FRB1\x01\x02"))
	res, err := New(Options{}).AnalyzeImageContext(context.Background(), img)
	if err != nil {
		t.Fatalf("AnalyzeImageContext: %v", err)
	}
	if res.Executable != "/bin/cloudd" {
		t.Errorf("executable = %q", res.Executable)
	}
	var hit bool
	for _, ae := range res.Errors {
		if ae.Path == "/bin/rotten" &&
			errors.Is(ae.Err, errdefs.ErrExecutableSkipped) &&
			errors.Is(ae.Err, errdefs.ErrCorruptBinary) {
			hit = true
		}
	}
	if !hit {
		t.Errorf("corrupt binary not recorded as skipped: %v", res.Errors)
	}
}

func TestAllExecutablesCorruptIsFatal(t *testing.T) {
	img := &image.Image{Device: "dead", Version: "1.0"}
	img.AddFile("/bin/a", image.ModeExec, []byte("FRB1 trash"))
	img.AddFile("/bin/b", image.ModeExec, []byte("FRB1\xff"))
	res, err := New(Options{}).AnalyzeImageContext(context.Background(), img)
	if !errors.Is(err, ErrNoDeviceCloudExecutable) {
		t.Fatalf("err = %v, want ErrNoDeviceCloudExecutable", err)
	}
	if len(res.Errors) != 2 {
		t.Errorf("skips recorded = %d, want 2: %v", len(res.Errors), res.Errors)
	}
}
