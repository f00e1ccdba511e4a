// Package obs is the pipeline's observability layer: hierarchical spans,
// named metrics, and pluggable run observers, with zero dependencies
// beyond the standard library.
//
// The design follows the same discipline as internal/parallel — a tiny,
// concurrency-safe core that the pipeline threads through every stage:
//
//   - Spans form a tree (one span per image, child spans per stage,
//     grandchild spans for hot inner loops). A Recorder collects finished
//     spans and can replay them as a human-readable tree or a Chrome
//     trace_event JSON file (chrome://tracing / Perfetto). A Tee hands
//     the image and stage spans to user-supplied Observers as they
//     happen; inner-loop spans reach only a keeping Recorder.
//   - Metrics are named counters and histograms whose snapshots are
//     deterministic at any worker count: every value is derived from the
//     work performed (which is schedule-independent), never from the
//     schedule itself.
//
// Everything is nil-safe: a nil *Recorder, *Span, *Metrics, *Counter, or
// *Histogram is a no-op, so instrumented code never branches on whether
// observability is enabled and disabled runs pay only a nil check.
package obs

import (
	"context"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value span attribute.
type Attr struct {
	Key   string
	Value string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int builds an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Value: strconv.Itoa(v)} }

// SpanData is the immutable record of one span, as handed to Observers and
// exporters. Parent is 0 for root spans.
type SpanData struct {
	ID     int64
	Parent int64
	Name   string
	Attrs  []Attr
	Status string // "" = ok; "partial", "skipped", "panic", "fatal: <kind>", ...
	Start  time.Time
	End    time.Time // zero in SpanStart notifications
}

// Duration is the span's wall-clock extent (zero before End).
func (d SpanData) Duration() time.Duration {
	if d.End.IsZero() {
		return 0
	}
	return d.End.Sub(d.Start)
}

// Attr returns the value of the named attribute, or "".
func (d SpanData) Attr(key string) string {
	for _, a := range d.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Observer is a sink notified as spans start and end, through a Tee: the
// root spans and their children (the pipeline's image and cache spans and
// its stages), not the inner-loop spans below them. Implementations must
// be safe for concurrent calls: the pipeline starts and ends spans from
// many goroutines at once.
type Observer interface {
	SpanStart(SpanData)
	SpanEnd(SpanData)
}

// Recorder collects the spans of one analysis run. Safe for concurrent
// use; build one with NewRecorder or Tee. A nil *Recorder is a valid
// no-op sink.
type Recorder struct {
	up     *Recorder // Tee: the recorder each span is handed on to
	keep   bool      // retain finished spans for Spans (NewRecorder)
	nextID atomic.Int64

	observers []Observer // fixed at construction

	mu    sync.Mutex
	spans []SpanData // finished spans, completion order
}

// NewRecorder builds an empty recorder that keeps every finished span for
// Spans.
func NewRecorder() *Recorder { return &Recorder{keep: true} }

// observedDepth is the depth of the deepest span a tee's observers see:
// the roots (the image and cache spans) are at depth 0 and the pipeline
// stages under them at 1. Inner-loop spans below the stages reach only a
// keeping recorder.
const observedDepth = 1

// Tee returns a recorder that notifies observers of the spans started
// through it down to observedDepth, and hands every span on to up, which
// numbers it and keeps or forwards it as one of its own. A deeper span is
// started on the keeping recorder behind the tee, unseen by its observers;
// with no keeping recorder behind it, it is not started at all, so an
// inner loop under an observer-only tee takes the nil-span path and
// allocates nothing. The tee keeps no span list, so with a nil up it is an
// observer-only recorder: Spans stays empty. A per-call tee lets one
// caller watch its own spans on a recorder others share.
func Tee(up *Recorder, observers ...Observer) *Recorder {
	return &Recorder{up: up, observers: observers[:len(observers):len(observers)]}
}

// StartSpan opens a span under parent (nil parent = root). A nil receiver,
// or a tee with no keeping recorder behind it asked for a span below
// observedDepth, returns a nil span, on which every method is a no-op.
func (r *Recorder) StartSpan(parent *Span, name string, attrs ...Attr) *Span {
	depth := 0
	if parent != nil {
		depth = parent.depth + 1
	}
	if depth > observedDepth {
		for r != nil && !r.keep {
			r = r.up
		}
	}
	if r == nil {
		return nil
	}
	s := &Span{
		rec:   r,
		depth: depth,
		data: SpanData{
			ID:    r.newID(),
			Name:  name,
			Attrs: attrs,
			Start: time.Now(),
		},
	}
	if parent != nil {
		s.data.Parent = parent.data.ID
	}
	r.notifyStart(s.data)
	return s
}

// newID numbers a span from the last recorder of the tee chain, so IDs
// are unique among every span that reaches it.
func (r *Recorder) newID() int64 {
	for r.up != nil {
		r = r.up
	}
	return r.nextID.Add(1)
}

func (r *Recorder) notifyStart(d SpanData) {
	for ; r != nil; r = r.up {
		for _, o := range r.observers {
			o.SpanStart(d)
		}
	}
}

// finish records a completed span and notifies observers, along the whole
// tee chain.
func (r *Recorder) finish(d SpanData) {
	for ; r != nil; r = r.up {
		if r.keep {
			r.mu.Lock()
			r.spans = append(r.spans, d)
			r.mu.Unlock()
		}
		for _, o := range r.observers {
			o.SpanEnd(d)
		}
	}
}

// Spans returns a copy of every finished span, ordered by start time (ties
// by ID), so exports are stable regardless of completion order. A Tee
// keeps no spans: its Spans is empty.
func (r *Recorder) Spans() []SpanData {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := append([]SpanData(nil), r.spans...)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Span is one live span. A span is owned by the goroutine that started it
// until End; Child may be called concurrently from worker goroutines
// fanning out under it (it only reads the immutable ID).
type Span struct {
	rec   *Recorder
	depth int // 0 for a root, the parent's plus one below it
	mu    sync.Mutex
	data  SpanData
	done  atomic.Bool
}

// Child opens a sub-span. Nil-safe.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.rec.StartSpan(s, name, attrs...)
}

// SetStatus records the span's outcome ("" = ok). Nil-safe.
func (s *Span) SetStatus(status string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Status = status
	s.mu.Unlock()
}

// AddAttr appends attributes. Nil-safe.
func (s *Span) AddAttr(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, attrs...)
	s.mu.Unlock()
}

// AddString appends one string attribute. Unlike AddAttr(String(k, v)),
// the nil check happens before anything is built, so a disabled span
// (nil receiver) costs zero allocations — this is the form hot inner
// loops use.
func (s *Span) AddString(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, Attr{Key: k, Value: v})
	s.mu.Unlock()
}

// AddInt appends one integer attribute, formatting it only when the span
// is live. Nil receiver: zero allocations.
func (s *Span) AddInt(k string, v int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.data.Attrs = append(s.data.Attrs, Attr{Key: k, Value: strconv.Itoa(v)})
	s.mu.Unlock()
}

// End closes the span and hands it to the recorder. Safe to call more than
// once (only the first End records). Nil-safe.
func (s *Span) End() {
	if s == nil || !s.done.CompareAndSwap(false, true) {
		return
	}
	s.mu.Lock()
	s.data.End = time.Now()
	d := s.data
	s.mu.Unlock()
	s.rec.finish(d)
}

// Duration is the span's extent so far (final after End). Nil-safe: zero.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.data.End.IsZero() {
		return time.Since(s.data.Start)
	}
	return s.data.End.Sub(s.data.Start)
}

// ctxKey carries the current span through a context.
type ctxKey struct{}

// ContextWith returns ctx carrying sp as the current span.
func ContextWith(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the current span, or nil.
func FromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}

// StartChild opens a child of the context's current span — the one-liner
// hot inner loops use. Returns nil (a no-op span) when the context carries
// no span, or when the span's recorder builds none that deep (see Tee).
func StartChild(ctx context.Context, name string, attrs ...Attr) *Span {
	return FromContext(ctx).Child(name, attrs...)
}
