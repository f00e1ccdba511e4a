package core

import (
	"context"
	"errors"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/errdefs"
	"firmres/internal/image"
	"firmres/internal/pcode"
)

// liftAnyBinary lifts the first binary executable of img through the
// pipeline's pool; the pool hands out the program released last first.
func liftAnyBinary(t *testing.T, p *Pipeline, img *image.Image) *pcode.Program {
	t.Helper()
	for _, f := range img.Executables() {
		if !f.IsBinary() {
			continue
		}
		bin, err := binfmt.Unmarshal(f.Data)
		if err != nil {
			t.Fatalf("Unmarshal(%s): %v", f.Path, err)
		}
		prog, err := p.Pool().LiftProgram(bin)
		if err != nil {
			t.Fatalf("LiftProgram(%s): %v", f.Path, err)
		}
		return prog
	}
	t.Fatal("image has no binary executable")
	return nil
}

// TestReleaseRecyclesWinner: a released Result hands its program to the
// next lift, and releasing it twice does not hand it out twice.
func TestReleaseRecyclesWinner(t *testing.T) {
	img := buildImage(t, 17)
	p := New(Options{})
	res, err := p.AnalyzeImage(img)
	if err != nil {
		t.Fatalf("AnalyzeImage: %v", err)
	}
	prog := res.prog
	if prog == nil {
		t.Fatal("result holds no program")
	}
	res.Release()
	res.Release()
	if got := liftAnyBinary(t, p, img); got != prog {
		t.Fatal("released program was not recycled by the next lift")
	}
	if got := liftAnyBinary(t, p, img); got == prog {
		t.Fatal("a program released twice was handed out twice")
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
	prog := res.prog
	if !panicked || prog == nil {
		t.Fatalf("want a panicked semantics stage over a pinpointed program; errors %v, program %v", res.Errors, prog != nil)
	}
	res.Release()
	if got := liftAnyBinary(t, p, img); got != prog {
		t.Fatal("Release did not recycle the program of an analysis with a panicked stage")
	}
}

// TestPoolKeepsWhatOneAnalysisHolds: the pipeline's pool keeps one
// program per pinpoint worker plus one, and leaves programs released
// beyond that to the garbage collector.
func TestPoolKeepsWhatOneAnalysisHolds(t *testing.T) {
	img := buildImage(t, 17)
	p := New(Options{Workers: 1})
	released := map[*pcode.Program]bool{}
	var progs []*pcode.Program
	for i := 0; i < 6; i++ {
		progs = append(progs, liftAnyBinary(t, p, img))
	}
	for _, prog := range progs {
		p.Pool().Release(prog)
		released[prog] = true
	}
	recycled := 0
	for i := 0; i < 6; i++ {
		if released[liftAnyBinary(t, p, img)] {
			recycled++
		}
	}
	if recycled != 2 {
		t.Errorf("pool handed back %d of 6 released programs, want 2 (1 pinpoint worker + 1)", recycled)
	}
}
