package semantics_test

import (
	"runtime"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/corpus"
	"firmres/internal/facts"
	"firmres/internal/identify"
	"firmres/internal/image"
	"firmres/internal/mft"
	"firmres/internal/pcode"
	"firmres/internal/semantics"
	"firmres/internal/slices"
	"firmres/internal/taint"
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

// classifyImage drives one image through the layers the pipeline calls,
// one call at a time, and classifies every slice of its device-cloud
// executable with c. Nothing it builds outlives the call except what c
// keeps.
func classifyImage(t *testing.T, c semantics.Classifier, img *image.Image) {
	t.Helper()
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		bin, err := binfmt.Unmarshal(f.Data)
		if err != nil {
			t.Fatalf("%s: Unmarshal: %v", f.Path, err)
		}
		prog, err := pcode.LiftProgram(bin)
		if err != nil {
			t.Fatalf("%s: LiftProgram: %v", f.Path, err)
		}
		fx := facts.New(prog)
		if !identify.Analyze(prog, identify.WithFacts(fx)).IsDeviceCloud {
			continue
		}
		for _, m := range taint.NewEngineFacts(fx, taint.Options{}).Analyze() {
			for _, part := range mft.Split(m) {
				for _, s := range slices.Generate(mft.Simplify(part)) {
					c.Classify(s)
				}
			}
		}
	}
}

// retainedBy classifies imgs in order with one bare KeywordClassifier and
// returns the live heap bytes the classifier still holds afterwards.
func retainedBy(t *testing.T, imgs []*image.Image) int64 {
	kc := &semantics.KeywordClassifier{}
	before := liveHeap()
	for _, img := range imgs {
		classifyImage(t, kc, img)
	}
	after := liveHeap()
	runtime.KeepAlive(kc)
	runtime.KeepAlive(imgs)
	return int64(after) - int64(before)
}

// TestKeywordClassifierRetainsOneImage: a classifier used directly, as a
// layer replay uses it, may keep the enrichment of the image it saw last
// but of no earlier one. Driving it across the 20 device-cloud images
// must leave no more live heap than driving it over the last image alone.
func TestKeywordClassifierRetainsOneImage(t *testing.T) {
	var imgs []*image.Image
	for id := 1; id <= 20; id++ {
		img, err := corpus.BuildImage(corpus.Device(id))
		if err != nil {
			t.Fatalf("BuildImage(%d): %v", id, err)
		}
		if img, err = image.Unpack(img.Pack()); err != nil {
			t.Fatalf("Unpack(%d): %v", id, err)
		}
		imgs = append(imgs, img)
	}
	one := retainedBy(t, imgs[len(imgs)-1:])
	all := retainedBy(t, imgs)
	slack := max(one/4, 64<<10)
	t.Logf("retained after the last image alone: %d B; after all %d images: %d B (slack %d)", one, len(imgs), all, slack)
	if all > one+slack {
		t.Errorf("classifier retains %d B after %d images, more than one image's %d B: it keeps earlier images' enrichment",
			all, len(imgs), one)
	}
}
