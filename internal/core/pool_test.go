package core

import (
	"context"
	"errors"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/errdefs"
	"firmres/internal/facts"
	"firmres/internal/image"
)

// liftAnyBinary lifts the first binary executable of img through the
// pipeline's pool; the pool hands out the set released last first.
func liftAnyBinary(t *testing.T, p *Pipeline, img *image.Image) *facts.Program {
	t.Helper()
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		bin, err := binfmt.Unmarshal(f.Data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", f.Path, err)
		}
		set, err := p.Pool().Lift(bin)
		if err != nil {
			t.Fatalf("Lift(%s): %v", f.Path, err)
		}
		return set
	}
	t.Fatal("image has no binary executable")
	return nil
}

// TestReleaseRecyclesWinner: a released Result hands its set to the next
// lift, and releasing it twice does not hand it out twice.
func TestReleaseRecyclesWinner(t *testing.T) {
	img := buildImage(t, 17)
	p := New(Options{})
	res, err := p.AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	set := res.set
	if set == nil {
		t.Fatal("result holds no set")
	}
	res.Release()
	res.Release()
	if got := liftAnyBinary(t, p, img); got != set {
		t.Fatal("released set was not recycled by the next lift")
	}
	if got := liftAnyBinary(t, p, img); got == set {
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
	res.Release()
	if got := liftAnyBinary(t, p, img); got != set {
		t.Fatal("Release did not recycle the set of an analysis with a panicked stage")
	}
}

// TestPoolKeepsWhatOneAnalysisHolds: the pipeline's pool keeps one set
// per pinpoint worker plus one, and leaves sets released beyond that to
// the garbage collector.
func TestPoolKeepsWhatOneAnalysisHolds(t *testing.T) {
	img := buildImage(t, 17)
	p := New(Options{Workers: 1})
	released := map[*facts.Program]bool{}
	var sets []*facts.Program
	for i := 0; i < 6; i++ {
		sets = append(sets, liftAnyBinary(t, p, img))
	}
	for _, set := range sets {
		p.Pool().Release(set)
		released[set] = true
	}
	recycled := 0
	for i := 0; i < 6; i++ {
		if released[liftAnyBinary(t, p, img)] {
			recycled++
		}
	}
	if recycled != 2 {
		t.Errorf("pool handed back %d of 6 released sets, want 2 (1 pinpoint worker + 1)", recycled)
	}
}
