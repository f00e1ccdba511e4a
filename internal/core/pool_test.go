package core

import (
	"context"
	"errors"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/errdefs"
	"firmres/internal/facts"
	"firmres/internal/image"
	"firmres/internal/parallel"
)

// liftAnyBinary lifts the first binary executable of img through the
// process's free list, which hands out the set released last first.
func liftAnyBinary(t *testing.T, img *image.Image) *facts.Program {
	t.Helper()
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		bin, err := binfmt.Unmarshal(f.Data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", f.Path, err)
		}
		set, err := facts.Lift(bin)
		if err != nil {
			t.Fatalf("Lift(%s): %v", f.Path, err)
		}
		return set
	}
	t.Fatal("image has no binary executable")
	return nil
}

// drainFreeList lifts as many sets as the free list can keep and returns
// them, so the list is empty until they or others are released.
func drainFreeList(t *testing.T, img *image.Image) []*facts.Program {
	t.Helper()
	var held []*facts.Program
	for i := 0; i < parallel.FreeListCap(); i++ {
		held = append(held, liftAnyBinary(t, img))
	}
	return held
}

func releaseAll(sets []*facts.Program) {
	for _, set := range sets {
		set.Release()
	}
}

// TestReleaseRecyclesWinner: a released Result hands its set to the next
// lift, and releasing it twice does not hand it out twice.
func TestReleaseRecyclesWinner(t *testing.T) {
	img := buildImage(t, 17)
	res, err := New(Options{}).AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	set := res.set
	if set == nil {
		t.Fatal("result holds no set")
	}
	held := drainFreeList(t, img)
	defer releaseAll(held)
	res.Release()
	res.Release()
	got := liftAnyBinary(t, img)
	defer got.Release()
	if got != set {
		t.Fatal("released set was not recycled by the next lift")
	}
	again := liftAnyBinary(t, img)
	defer again.Release()
	if again == set {
		t.Fatal("a set released twice was handed out twice")
	}
}

// TestPanickedStageReleasesProgram: stages run inline, so once the
// analysis returns nothing reads the lifted program, even after a
// recovered panic degraded a stage, and Release recycles it.
func TestPanickedStageReleasesProgram(t *testing.T) {
	img := buildImage(t, 17)
	p := New(Options{Classifier: panicClassifier{}})
	res, err := p.AnalyzeImageContext(context.Background(), img)
	if err != nil {
		t.Fatalf("AnalyzeImageContext: %v", err)
	}
	var panicked bool
	for _, ae := range res.Errors {
		if ae.Stage == StageSemantics.String() && errors.Is(ae.Err, errdefs.ErrStagePanic) {
			panicked = true
		}
	}
	set := res.set
	if !panicked || set == nil {
		t.Fatalf("want a panicked semantics stage over a pinpointed program; errors %v, set %v", res.Errors, set != nil)
	}
	held := drainFreeList(t, img)
	defer releaseAll(held)
	res.Release()
	got := liftAnyBinary(t, img)
	defer got.Release()
	if got != set {
		t.Fatal("Release did not recycle the set of an analysis with a panicked stage")
	}
}

// TestPoolKeepsWhatOneAnalysisHolds: the process's free list keeps two
// sets per processor — what the workers of one analysis, or of one
// analysis each, hold at once, since a worker holds the set it lifts into
// and the candidate pinpoint keeps until selection — and leaves sets
// released beyond that to the garbage collector.
func TestPoolKeepsWhatOneAnalysisHolds(t *testing.T) {
	img := buildImage(t, 17)
	n := parallel.FreeListCap() + 3
	released := map[*facts.Program]bool{}
	var sets []*facts.Program
	for i := 0; i < n; i++ {
		sets = append(sets, liftAnyBinary(t, img))
	}
	for _, set := range sets {
		set.Release()
		released[set] = true
	}
	recycled := 0
	sets = sets[:0]
	for i := 0; i < n; i++ {
		set := liftAnyBinary(t, img)
		sets = append(sets, set)
		if released[set] {
			recycled++
		}
	}
	releaseAll(sets)
	if want := parallel.FreeListCap(); recycled != want {
		t.Errorf("free list handed back %d of %d released sets, want %d (two per processor)", recycled, n, want)
	}
}
