package firmres

import (
	"context"
	"errors"
	"testing"
	"time"

	"firmres/internal/faultinject"
)

// TestFaultInjectionNeverPanics drives the full public pipeline over every
// corruption mode at several seeds. Whatever the damage, AnalyzeImageContext
// must return within the caller's deadline with either a typed taxonomy
// error or a (possibly partial) report — never a panic, never a hang.
func TestFaultInjectionNeverPanics(t *testing.T) {
	data := packedDevice(t, 17)
	const hangBound = 15 * time.Second
	for _, mode := range faultinject.Modes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			for seed := int64(0); seed < 4; seed++ {
				corrupted, err := faultinject.Corrupt(data, mode, seed)
				if err != nil {
					t.Fatalf("seed %d: Corrupt: %v", seed, err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), hangBound)
				start := time.Now()
				report, err := AnalyzeImageContext(ctx, corrupted)
				elapsed := time.Since(start)
				cancel()
				if elapsed > hangBound {
					t.Errorf("seed %d: analysis ran %v, past the caller's deadline", seed, elapsed)
				}
				switch {
				case err != nil:
					// Fatal outcomes must carry the taxonomy.
					if !errors.Is(err, ErrCorruptImage) &&
						!errors.Is(err, ErrNoDeviceCloudExecutable) &&
						!errors.Is(err, ErrStageTimeout) {
						t.Errorf("seed %d: untyped fatal error: %v", seed, err)
					}
				case report == nil:
					t.Errorf("seed %d: nil report with nil error", seed)
				case report.Partial():
					// Every recorded entry must name the skipped work.
					for _, ae := range report.Errors {
						if ae.Stage == "" || ae.Detail == "" || ae.Kind == "error" {
							t.Errorf("seed %d: anonymous degradation entry: %+v", seed, ae)
						}
					}
				}
			}
		})
	}
}

// TestFaultInjectionSurvivesWithoutBudget repeats the sweep with no
// deadline at all: parser-level corruption must still resolve to typed
// errors or reports through structural validation alone.
func TestFaultInjectionSurvivesWithoutBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("long corruption sweep")
	}
	data := packedDevice(t, 5)
	for _, mode := range faultinject.Modes() {
		corrupted, err := faultinject.Corrupt(data, mode, 42)
		if err != nil {
			t.Fatalf("%s: Corrupt: %v", mode, err)
		}
		report, err := AnalyzeImage(corrupted)
		if err == nil && report == nil {
			t.Errorf("%s: nil report with nil error", mode)
		}
		if err != nil && !errors.Is(err, ErrCorruptImage) &&
			!errors.Is(err, ErrNoDeviceCloudExecutable) {
			t.Errorf("%s: untyped error without budget: %v", mode, err)
		}
	}
}
