// Allocation counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"testing"

	"firmres/internal/corpus"
)

// probeAllocBudget is the committed ceiling on heap bytes allocated per
// image by the probe workload's shape in process: the 22 symbol-full
// devices with the probe stage on, 2 probers, one worker. The measured
// cost is 0.32 MB, of which the static stages take about 0.15 MB and the
// rest is mostly net/http's client and server work for the replay's
// exchanges; blowing the budget means the stage pays again for something
// other than its exchanges (a spec rebuilt per analysis, a request parsed
// twice, an access log copied per poll, connections re-dialed because the
// transport cannot keep them idle).
const probeAllocBudget = 0.43e6

// probeAllocPerImage runs one warm-up AnalyzeImages pass of imgs with the
// probe stage on at the given prober count and one worker, then returns
// the heap bytes a second pass allocates per image.
func probeAllocPerImage(t *testing.T, imgs [][]byte, probers int) float64 {
	t.Helper()
	opts := []Option{WithProbe(), WithProbeProbers(probers), WithWorkers(1)}
	if _, err := AnalyzeImages(context.Background(), imgs, opts...); err != nil {
		t.Fatalf("warm-up AnalyzeImages: %v", err)
	}
	before := heapAllocBytes()
	br, err := AnalyzeImages(context.Background(), imgs, opts...)
	after := heapAllocBytes()
	if err != nil {
		t.Fatalf("AnalyzeImages: %v", err)
	}
	if br.Summary.Images != len(imgs) {
		t.Fatalf("analyzed %d images, want %d", br.Summary.Images, len(imgs))
	}
	return float64(after-before) / float64(len(imgs))
}

// TestProbeAllocBudget pins the allocation cost of the probe stage on the
// probe workload's shape (2 probers) and logs the default 8-prober figure,
// whose fleet keeps up to 8 idle connections to its cloud.
func TestProbeAllocBudget(t *testing.T) {
	imgs := make([][]byte, corpus.NumDevices)
	for i := range imgs {
		imgs[i] = packedDevice(t, i+1)
	}
	perImage := probeAllocPerImage(t, imgs, 2)
	t.Logf("probe, 2 probers: %.0f B/image over %d images (budget %.0f)", perImage, len(imgs), probeAllocBudget)
	t.Logf("probe, 8 probers: %.0f B/image", probeAllocPerImage(t, imgs, 8))
	if perImage > probeAllocBudget {
		t.Errorf("probe sweep allocates %.0f B/image, budget %.0f", perImage, probeAllocBudget)
	}
}

// TestCorpusSpecForAllocBound: a repeat lookup of a device's probe spec
// returns the spec resolved the first time, making at most one allocation,
// and a lookup that matches no Table I row allocates nothing.
func TestCorpusSpecForAllocBound(t *testing.T) {
	for _, id := range []int{1, 20} {
		d := corpus.Device(id)
		device, version := d.Vendor+" "+d.Model, d.Version
		corpusSpecFor(device, version)
		if got := testing.AllocsPerRun(5, func() { corpusSpecFor(device, version) }); got > 1 {
			t.Errorf("device %d: repeat spec lookup allocates %v times, want at most 1", id, got)
		}
	}
	if got := testing.AllocsPerRun(5, func() { corpusSpecFor("Acme Router9000", "1.0") }); got > 0 {
		t.Errorf("unknown identity: spec lookup allocates %v times, want 0", got)
	}
}
