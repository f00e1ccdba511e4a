package firmres

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"firmres/internal/corpus"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden end-to-end reports")

// goldenRecord is the stable projection of one device's analysis: the full
// report, or the fatal outcome for images with no device-cloud executable
// (script-only devices 21-22).
type goldenRecord struct {
	Device  int     `json:"device"`
	Outcome string  `json:"outcome"` // "report" or "no-device-cloud-executable"
	Report  *Report `json:"report,omitempty"`
}

func goldenPath(id int) string {
	return filepath.Join("testdata", "golden", fmt.Sprintf("device_%02d.json", id))
}

func goldenRecordFor(t *testing.T, id int) *goldenRecord {
	t.Helper()
	img, err := corpus.BuildImage(corpus.Device(id))
	if err != nil {
		t.Fatalf("BuildImage(%d): %v", id, err)
	}
	return recordOf(t, id, img.Pack(), WithLint())
}

// recordOf analyzes device id's packed image under opts; any fatal outcome
// but a missing device-cloud executable fails the test.
func recordOf(t *testing.T, id int, data []byte, opts ...Option) *goldenRecord {
	t.Helper()
	rec := &goldenRecord{Device: id}
	report, err := AnalyzeImage(data, opts...)
	switch {
	case err == nil:
		rec.Outcome = "report"
		rec.Report = report
	case errors.Is(err, ErrNoDeviceCloudExecutable):
		rec.Outcome = "no-device-cloud-executable"
	default:
		t.Fatalf("AnalyzeImage(%d): %v", id, err)
	}
	return rec
}

// TestGoldenReports locks the end-to-end analysis output (lint included)
// for the whole 22-device corpus. Regenerate with `go test -run
// TestGoldenReports -update .` after an intentional behavior change.
//
// The subtests run in parallel (except under -update, where corpus
// regeneration must stay ordered): 22 concurrent full-pipeline analyses
// double as a stress test of the shared facts store and the stage worker
// pools, and the race detector in `make check` patrols them.
func TestGoldenReports(t *testing.T) {
	for id := 1; id <= 22; id++ {
		id := id
		t.Run(fmt.Sprintf("device_%02d", id), func(t *testing.T) {
			if !*updateGolden {
				t.Parallel()
			}
			rec := goldenRecordFor(t, id)
			got, err := json.MarshalIndent(rec, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, '\n')
			path := goldenPath(id)
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
				t.Fatalf("missing golden file (run `go test -run TestGoldenReports -update .`): %v", err)
			}
			if string(got) != string(want) {
				t.Errorf("report for device %d diverged from %s;\nregenerate with -update if intentional.\ngot:\n%s", id, path, clip(string(got)))
			}
		})
	}
}

// TestGoldenReportsCached replays the whole corpus against the golden files
// with the persistent cache enabled, twice over one directory: the first
// pass populates the cache (cold), the second is served from it (warm).
// Both passes must stay byte-identical to the cache-off goldens — caching
// is an optimization, never an observable behavior change.
func TestGoldenReportsCached(t *testing.T) {
	dir := t.TempDir()
	var st CacheStats
	for _, pass := range []string{"cold", "warm"} {
		pass := pass
		t.Run(pass, func(t *testing.T) {
			for id := 1; id <= 22; id++ {
				img, err := corpus.BuildImage(corpus.Device(id))
				if err != nil {
					t.Fatalf("BuildImage(%d): %v", id, err)
				}
				rec := &goldenRecord{Device: id}
				report, err := AnalyzeImage(img.Pack(),
					WithLint(), WithCache(dir), WithCacheStats(&st))
				switch {
				case err == nil:
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
					t.Errorf("%s cached report for device %d diverged from golden:\n%s",
						pass, id, clip(string(got)))
				}
			}
		})
	}
	// Devices 21-22 fail fatally (never cached), so a warm corpus pass is
	// 20 hits; everything else across both passes is a miss.
	if st.Hits != 20 || st.Misses != 24 {
		t.Errorf("cache stats over cold+warm corpus = %+v, want 20 hits + 24 misses", st)
	}
}

// clip bounds a diff dump to keep failures readable.
func clip(s string) string {
	const max = 4000
	if len(s) <= max {
		return s
	}
	return s[:max] + "\n... (truncated)"
}
