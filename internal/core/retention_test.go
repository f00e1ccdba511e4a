package core

import (
	"errors"
	"runtime"
	"testing"

	"firmres/internal/corpus"
	"firmres/internal/image"
)

// liveHeap returns the bytes of live heap objects. Two collections flush
// the sync.Pool victim caches, so pooled scratch does not count.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestPipelineRetainsNoEnrichment runs the crawl set (22 devices and their
// 22 stripped twins, lint and stripped mode) through one Pipeline and
// requires the live heap to return to its pre-batch level once the results
// are dropped, while the pipeline and its classifier stay reachable: no
// per-image enrichment state may outlive the analysis that built it.
func TestPipelineRetainsNoEnrichment(t *testing.T) {
	const budget = 1 << 20
	var imgs []*image.Image
	for id := 1; id <= 22; id++ {
		full, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		twin, err := corpus.BuildStrippedImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildStrippedImage(%d): %v", id, err)
		}
		for _, img := range []*image.Image{full, twin} {
			unpacked, err := image.Unpack(img.Pack())
			if err != nil {
				t.Fatalf("Unpack(%d): %v", id, err)
			}
			imgs = append(imgs, unpacked)
		}
	}
	p := New(Options{Lint: true, Stripped: true, Workers: 1})

	before := liveHeap()
	for _, img := range imgs {
		if _, err := p.AnalyzeImage(img); err != nil && !errors.Is(err, ErrNoDeviceCloudExecutable) {
			t.Fatalf("AnalyzeImage(%s): %v", img.Device, err)
		}
	}
	after := liveHeap()
	runtime.KeepAlive(p)
	runtime.KeepAlive(imgs)

	grown := int64(after) - int64(before)
	t.Logf("live heap grew %d B over %d images (budget %d)", grown, len(imgs), budget)
	if grown > budget {
		t.Errorf("live heap grew %d B after the batch, budget %d: the pipeline keeps per-image state", grown, budget)
	}
}
