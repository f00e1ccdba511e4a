package firmres

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestAnalyzeImageContextClean(t *testing.T) {
	report, err := AnalyzeImageContext(context.Background(), packedDevice(t, 17))
	if err != nil {
		t.Fatalf("AnalyzeImageContext: %v", err)
	}
	if report.Partial() {
		t.Errorf("clean analysis reported partial: %v", report.Errors)
	}
	if len(report.Messages) == 0 {
		t.Error("no messages reconstructed")
	}
}

func TestAnalyzeImageContextExpiredDeadline(t *testing.T) {
	data := packedDevice(t, 17)

	// Baseline: how long an uncancelled analysis takes.
	start := time.Now()
	if _, err := AnalyzeImage(data); err != nil {
		t.Fatalf("baseline AnalyzeImage: %v", err)
	}
	baseline := time.Since(start)

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Minute))
	defer cancel()
	start = time.Now()
	_, err := AnalyzeImageContext(ctx, data)
	elapsed := time.Since(start)
	if !errors.Is(err, ErrStageTimeout) {
		t.Fatalf("err = %v, want ErrStageTimeout", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, does not wrap context.DeadlineExceeded", err)
	}
	// "Well under the uncancelled runtime": the expired context must abort
	// before any stage does real work.
	if elapsed > baseline/2+10*time.Millisecond {
		t.Errorf("expired context ran %v (uncancelled baseline %v)", elapsed, baseline)
	}
}

func TestAnalyzeImageCorruptWrapsTypedError(t *testing.T) {
	_, err := AnalyzeImage([]byte("not a firmware image"))
	if !errors.Is(err, ErrCorruptImage) {
		t.Errorf("err = %v, want ErrCorruptImage", err)
	}
}
