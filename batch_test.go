package firmres

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"firmres/internal/corpus"
)

// packCorpus packs the given corpus devices into batch input.
func packCorpus(t *testing.T, ids []int) [][]byte {
	t.Helper()
	imgs := make([][]byte, len(ids))
	for i, id := range ids {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		imgs[i] = img.Pack()
	}
	return imgs
}

// marshalBatch renders a batch report, which must be byte-identical at any
// worker count.
func marshalBatch(t *testing.T, br *BatchReport) string {
	t.Helper()
	out, err := json.MarshalIndent(br, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestAnalyzeImagesDeterministicAcrossWorkers is the concurrency-correctness
// contract: the batch output (reports, per-image errors, summary, ordering)
// is byte-identical whether the corpus is analyzed on 1 worker or 8.
func TestAnalyzeImagesDeterministicAcrossWorkers(t *testing.T) {
	ids := make([]int, 0, 22)
	for id := 1; id <= 22; id++ {
		ids = append(ids, id)
	}
	imgs := packCorpus(t, ids)

	seq, err := AnalyzeImages(context.Background(), imgs, WithLint(), WithWorkers(1))
	if err != nil {
		t.Fatalf("AnalyzeImages(-j 1): %v", err)
	}
	par, err := AnalyzeImages(context.Background(), imgs, WithLint(), WithWorkers(8))
	if err != nil {
		t.Fatalf("AnalyzeImages(-j 8): %v", err)
	}
	got, want := marshalBatch(t, par), marshalBatch(t, seq)
	if got != want {
		t.Errorf("-j 8 batch output diverged from -j 1:\n%s", clip(got))
	}
}

func TestAnalyzeImagesSummary(t *testing.T) {
	// Device 17 reports (with flagged messages), device 21 is script-only
	// (fatal per-image, batch continues), device 2 reports cleanly.
	br, err := AnalyzeImages(context.Background(), packCorpus(t, []int{17, 21, 2}), WithLint())
	if err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	s := br.Summary
	if s.Images != 3 || s.Reports != 2 || s.Failed != 1 {
		t.Errorf("summary counts = %+v", s)
	}
	if s.Messages == 0 || s.Flagged == 0 {
		t.Errorf("summary missing message stats: %+v", s)
	}
	if br.Images[1].Report != nil || !errors.Is(br.Images[1].Err, ErrNoDeviceCloudExecutable) {
		t.Errorf("script-only image result = %+v", br.Images[1])
	}
	if br.Images[1].Kind != "no-device-cloud-executable" {
		t.Errorf("script-only kind = %q", br.Images[1].Kind)
	}
	for i, want := range []string{"image[0]", "image[1]", "image[2]"} {
		if br.Images[i].Path != want {
			t.Errorf("path[%d] = %q, want %q", i, br.Images[i].Path, want)
		}
	}
}

func TestAnalyzeImagesCorruptEntry(t *testing.T) {
	imgs := packCorpus(t, []int{5})
	imgs = append(imgs, []byte("not a firmware image"))
	br, err := AnalyzeImages(context.Background(), imgs)
	if err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	if br.Images[0].Report == nil {
		t.Errorf("healthy image failed: %+v", br.Images[0])
	}
	if !errors.Is(br.Images[1].Err, ErrCorruptImage) || br.Images[1].Kind != "corrupt-image" {
		t.Errorf("corrupt image result = %+v", br.Images[1])
	}
}

func TestAnalyzeImagesCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := AnalyzeImages(ctx, packCorpus(t, []int{5}))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestAnalyzeDir(t *testing.T) {
	dir := t.TempDir()
	imgs := packCorpus(t, []int{5, 2})
	if err := os.WriteFile(filepath.Join(dir, "a_dev5.img"), imgs[0], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "b_dev2.img"), imgs[1], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".hidden"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	br, err := AnalyzeDir(context.Background(), dir)
	if err != nil {
		t.Fatalf("AnalyzeDir: %v", err)
	}
	if len(br.Images) != 2 {
		t.Fatalf("images = %d, want 2 (hidden file must be skipped)", len(br.Images))
	}
	if filepath.Base(br.Images[0].Path) != "a_dev5.img" || filepath.Base(br.Images[1].Path) != "b_dev2.img" {
		t.Errorf("paths not sorted: %q, %q", br.Images[0].Path, br.Images[1].Path)
	}
	if br.Summary.Reports != 2 {
		t.Errorf("summary = %+v", br.Summary)
	}
}

func TestAnalyzePathsUnreadable(t *testing.T) {
	br, err := AnalyzePaths(context.Background(), []string{filepath.Join(t.TempDir(), "missing.img")})
	if err != nil {
		t.Fatalf("AnalyzePaths: %v", err)
	}
	if br.Images[0].Err == nil || br.Summary.Failed != 1 {
		t.Errorf("missing file not recorded per-image: %+v", br.Images[0])
	}
}
