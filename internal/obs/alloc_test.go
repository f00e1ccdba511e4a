// AllocsPerRun counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package obs

import (
	"context"
	"testing"
)

// The disabled observability path must be truly free: pipeline hot loops
// open a span and bump counters per MFT/slice/function, so a single heap
// allocation here multiplies across the corpus. These gates pin the
// disabled cost to zero allocations; `make check` runs them, so a
// regression (say, a variadic attr slice escaping again) fails CI.

func TestDisabledSpanZeroAllocs(t *testing.T) {
	ctx := context.Background() // no span attached
	if n := testing.AllocsPerRun(1000, func() {
		sp := StartChild(ctx, "hot-loop")
		sp.AddString("fn", "handler")
		sp.AddInt("slices", 7)
		sp.SetStatus("ok")
		sp.End()
	}); n != 0 {
		t.Errorf("disabled span path allocates %v per op, want 0", n)
	}
}

func TestDisabledCounterZeroAllocs(t *testing.T) {
	var met *Metrics // disabled
	if n := testing.AllocsPerRun(1000, func() {
		met.Counter("taint_steps_total").Inc()
		met.Counter("message_fields_total", "label", "DevSecret").Add(3)
		met.Histogram("fields_per_message").Observe(5)
	}); n != 0 {
		t.Errorf("disabled counter/histogram path allocates %v per op, want 0", n)
	}
}

func TestDisabledRecorderZeroAllocs(t *testing.T) {
	var rec *Recorder
	if n := testing.AllocsPerRun(1000, func() {
		sp := rec.StartSpan(nil, "image")
		child := sp.Child("stage")
		child.End()
		sp.End()
	}); n != 0 {
		t.Errorf("disabled recorder path allocates %v per op, want 0", n)
	}
}

// TestObserverOnlyInnerSpanZeroAllocs: below the stages an observer-only
// tee starts no span, so an inner loop under an observed stage costs what
// it costs with observability off.
func TestObserverOnlyInnerSpanZeroAllocs(t *testing.T) {
	rec := Tee(nil, funcObserver{start: func(SpanData) {}, end: func(SpanData) {}})
	root := rec.StartSpan(nil, "image")
	stage := root.Child("stage")
	ctx := ContextWith(context.Background(), stage)
	if n := testing.AllocsPerRun(1000, func() {
		sp := StartChild(ctx, "hot-loop")
		sp.AddString("fn", "handler")
		sp.AddInt("slices", 7)
		sp.End()
	}); n != 0 {
		t.Errorf("inner-loop span under an observer-only tee allocates %v per op, want 0", n)
	}
	stage.End()
	root.End()
}

// TestCounterLookupZeroAllocs: looking an instrument up — labels and all —
// allocates nothing. A service bumps labelled counters on every request,
// so rendering the key per call would cost an allocation per request.
func TestCounterLookupZeroAllocs(t *testing.T) {
	m := NewMetrics()
	outcome := "accepted"
	m.Counter("serve_submissions_total", "outcome", outcome).Inc()
	m.Histogram("fields_per_message").Observe(1)
	if n := testing.AllocsPerRun(1000, func() {
		m.Counter("serve_submissions_total", "outcome", outcome).Inc()
		m.Counter("errors_total", "stage", "lint-passes", "kind", "stage-timeout").Inc()
		m.Histogram("fields_per_message").Observe(3)
	}); n != 0 {
		t.Errorf("existing-instrument lookups allocate %v per op, want 0", n)
	}
}
