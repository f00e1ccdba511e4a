package firmres

// Contract tests for the long-lived Analyzer: one cache handle shared by
// every call, canonical report bytes, configuration errors at
// construction, and span sinks that keep nothing they are not asked to.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmres/internal/cache"
)

// flightObserver hands span events to callbacks.
type flightObserver struct {
	start, end func(SpanEvent)
}

func (o flightObserver) SpanStart(e SpanEvent) { o.start(e) }
func (o flightObserver) SpanEnd(e SpanEvent)   { o.end(e) }

// TestAnalyzerSingleFlight runs two calls for the same bytes on one
// Analyzer at once. The computing call holds its pinpoint stage until the
// other call has opened its cache span, so the other reaches the cache
// while the computation is in flight: one miss, one hit, one pipeline run.
func TestAnalyzerSingleFlight(t *testing.T) {
	data := packedDevice(t, 5)
	a, err := NewAnalyzer(WithLint(), WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	var entered sync.WaitGroup
	entered.Add(2)
	bothIn := make(chan struct{})
	go func() {
		entered.Wait()
		close(bothIn)
	}()
	var pinpoints atomic.Int32
	o := flightObserver{
		start: func(e SpanEvent) {
			switch e.Name {
			case "cache":
				entered.Done()
			case "pinpoint-executables":
				<-bothIn
			}
		},
		end: func(e SpanEvent) {
			if e.Name == "pinpoint-executables" {
				pinpoints.Add(1)
			}
		},
	}

	type result struct {
		js  []byte
		hit bool
		err error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, js, hit, err := a.Analyze(context.Background(), nil, data, o)
			results[i] = result{js, hit, err}
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("call %d: %v", i, r.err)
		}
	}
	if results[0].hit == results[1].hit {
		t.Errorf("hit flags = %v, %v; want one miss and one hit", results[0].hit, results[1].hit)
	}
	if !bytes.Equal(results[0].js, results[1].js) {
		t.Error("the two calls returned different report bytes")
	}
	if st := a.CacheStats(); st.Misses != 1 || st.Hits != 1 {
		t.Errorf("cache stats = %+v, want 1 miss + 1 hit", st)
	}
	if n := pinpoints.Load(); n != 1 {
		t.Errorf("pinpoint-executables spans = %d, want 1", n)
	}
}

// TestAnalyzerLeaderCancelSparesFollower runs two calls for the same bytes
// on one Analyzer at once, the way TestAnalyzerSingleFlight does, and the
// computing call cancels its own context as its pinpoint stage starts. The
// cancellation is that call's failure alone: the other call, whose context
// stays live, must compute the report itself instead of inheriting it.
func TestAnalyzerLeaderCancelSparesFollower(t *testing.T) {
	data := packedDevice(t, 5)
	a, err := NewAnalyzer(WithLint(), WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	want, err := AnalyzeImage(data, WithLint())
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var entered sync.WaitGroup
	entered.Add(2)
	bothIn := make(chan struct{})
	go func() {
		entered.Wait()
		close(bothIn)
	}()
	var leader atomic.Int32 // 1 + the index of the call that cancelled itself

	type result struct {
		js  []byte
		hit bool
		err error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := range results {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		o := flightObserver{
			start: func(e SpanEvent) {
				switch e.Name {
				case "cache":
					entered.Done()
				case "pinpoint-executables":
					<-bothIn
					if leader.CompareAndSwap(0, int32(i+1)) {
						// Let the other call reach single-flight and wait
						// on this computation before it fails. Nothing
						// signals that wait, so this is a sleep; a call
						// that arrives later computes on its own, and the
						// assertions below hold either way.
						time.Sleep(20 * time.Millisecond)
						cancel()
					}
				}
			},
			end: func(SpanEvent) {},
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, js, hit, err := a.Analyze(ctx, nil, data, o)
			results[i] = result{js, hit, err}
		}(i)
	}
	wg.Wait()

	l := int(leader.Load()) - 1
	if l < 0 {
		t.Fatal("no call started a pinpoint stage")
	}
	if err := results[l].err; !errors.Is(err, ErrStageTimeout) || !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call: err = %v, want ErrStageTimeout wrapping context.Canceled", err)
	}
	f := results[1-l]
	if f.err != nil {
		t.Fatalf("live call failed with the other call's cancellation: %v", f.err)
	}
	if f.hit {
		t.Error("live call reported a hit, but nothing was cached before it computed")
	}
	if !bytes.Equal(f.js, wantJS) {
		t.Error("live call's report differs from a fresh analysis")
	}
	if st := a.CacheStats(); st.Misses != 2 || st.Hits != 0 {
		t.Errorf("cache stats = %+v, want 2 misses (one per computation) and no hit", st)
	}
}

// TestAnalyzerBytesAreCanonical: the bytes Analyze returns are json.Marshal
// of its report with and without the cache, cold and warm, and Cached
// serves the same bytes without analyzing.
func TestAnalyzerBytesAreCanonical(t *testing.T) {
	data := packedDevice(t, 7)
	want, err := AnalyzeImage(data, WithLint())
	if err != nil {
		t.Fatal(err)
	}
	wantJS, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAnalyzer(WithLint())
	if err != nil {
		t.Fatal(err)
	}
	cached, err := NewAnalyzer(WithLint(), WithCache(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := cached.Cached(nil, data); ok {
		t.Fatal("cold cache probe hit")
	}
	for _, tc := range []struct {
		name    string
		a       *Analyzer
		wantHit bool
	}{
		{"uncached", plain, false},
		{"cold", cached, false},
		{"warm", cached, true},
	} {
		rep, js, hit, err := tc.a.Analyze(context.Background(), nil, data, nil)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if hit != tc.wantHit {
			t.Errorf("%s: hit = %v, want %v", tc.name, hit, tc.wantHit)
		}
		if !bytes.Equal(js, wantJS) {
			t.Errorf("%s: report bytes diverged from json.Marshal of AnalyzeImage", tc.name)
		}
		if got := marshalReport(t, rep); got != marshalReport(t, want) {
			t.Errorf("%s: report diverged:\n%s", tc.name, clip(got))
		}
	}
	js, ok := cached.Cached(nil, data)
	if !ok || !bytes.Equal(js, wantJS) {
		t.Errorf("warm probe = (%d bytes, %v), want the analyzed bytes", len(js), ok)
	}
	if st := cached.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats = %+v, want probes uncounted: 1 miss + 1 hit", st)
	}
}

// TestAnalyzeAppendsIntoDst: for every golden image that has a report,
// the js Analyze returns is json.Marshal of the report, whatever dst it is
// handed — nil, one too short to hold it, one large enough — on a cache
// miss and on a hit, and a dst large enough holds it in place.
func TestAnalyzeAppendsIntoDst(t *testing.T) {
	dsts := []struct {
		name string
		dst  func() []byte
	}{
		{"nil", func() []byte { return nil }},
		{"short", func() []byte { return []byte("stale bytes") }},
		{"large", func() []byte { return append(make([]byte, 0, 1<<16), "stale bytes"...) }},
	}
	analyzers := make([]*Analyzer, len(dsts))
	for i := range dsts {
		a, err := NewAnalyzer(WithLint(), WithMetrics(), WithCache(t.TempDir()))
		if err != nil {
			t.Fatal(err)
		}
		analyzers[i] = a
	}
	for _, g := range goldenCrawlSet(t) {
		for _, pass := range []string{"miss", "hit"} {
			for i, d := range dsts {
				dst := d.dst()
				rep, js, hit, err := analyzers[i].Analyze(context.Background(), dst, g.data, nil)
				if errors.Is(err, ErrNoDeviceCloudExecutable) {
					continue
				}
				if err != nil {
					t.Fatalf("%s, %s dst, %s: %v", g.path, d.name, pass, err)
				}
				if hit != (pass == "hit") {
					t.Errorf("%s, %s dst: hit = %v on the %s pass", g.path, d.name, hit, pass)
				}
				want, err := json.Marshal(rep)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(js, want) {
					t.Errorf("%s, %s dst, %s: js differs from json.Marshal of the report", g.path, d.name, pass)
				}
				if d.name == "large" && &js[:1][0] != &dst[:1][0] {
					t.Errorf("%s, %s: js is not in the large dst's storage", g.path, pass)
				}
			}
		}
	}
}

// TestAnalyzerCachedRejectsInvalidPayload: an entry whose checksum holds
// but whose payload is not JSON is corrupt: a miss for the probe, and
// recomputed by an analysis that reads it, whether it wants the bytes
// (Analyze) or only the report (a batch). Each analysis deletes the entry
// and counts it in CacheStats().Errors; the probe counts nothing.
func TestAnalyzerCachedRejectsInvalidPayload(t *testing.T) {
	data := packedDevice(t, 5)
	dir := t.TempDir()
	a, err := NewAnalyzer(WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	plant := func() {
		t.Helper()
		if err := a.cache.Put(cache.KeyOf(data, a.fp), []byte(`{"Device":`)); err != nil {
			t.Fatal(err)
		}
	}
	plant()
	if js, ok := a.Cached(nil, data); ok {
		t.Errorf("probe accepted a truncated payload: %q", js)
	}
	plant()
	if rep, _, hit, err := a.Analyze(context.Background(), nil, data, nil); err != nil || hit || rep.Device == "" {
		t.Errorf("Analyze over a truncated payload = (hit %t, %v), want a recomputed report", hit, err)
	}
	if st := a.CacheStats(); st.Errors != 1 || st.Hits != 0 {
		t.Errorf("cache stats = %+v, want the analysis's corrupt entry counted, and not the probe's", st)
	}
	plant()
	br, err := AnalyzeImages(context.Background(), [][]byte{data}, WithCache(dir))
	if err != nil {
		t.Fatal(err)
	}
	if res := br.Images[0]; res.Report == nil || res.Err != nil {
		t.Errorf("batch over a truncated payload = %+v, want a recomputed report", res)
	}
	if st := br.Summary.Cache; st.Errors != 1 || st.Misses != 1 {
		t.Errorf("batch cache stats = %+v, want 1 corrupt entry and 1 miss", st)
	}
}

// TestNewAnalyzerConfigError: a bad option fails construction, before any
// image is seen.
func TestNewAnalyzerConfigError(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.gob")
	if _, err := NewAnalyzer(WithModelFile(missing)); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("missing model file: err = %v, want os.ErrNotExist", err)
	}
	if _, err := NewAnalyzer(WithProbeChaos("no-such-mode")); err == nil {
		t.Error("unknown chaos mode accepted")
	}
}

// TestObserverOnlyAnalyzerKeepsNoSpans: observers without a trace get
// every span while the recorder behind them keeps none, so a long-lived
// Analyzer does not accumulate spans.
func TestObserverOnlyAnalyzerKeepsNoSpans(t *testing.T) {
	var col spanCollector
	a, err := NewAnalyzer(WithObserver(&col))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := a.Analyze(context.Background(), nil, packedDevice(t, 5), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := col.names()["image"]; n != 2 {
		t.Errorf("observer saw %d image spans, want 2", n)
	}
	if n := len(a.rec.Spans()); n != 0 {
		t.Errorf("observer-only recorder kept %d spans, want 0", n)
	}
}

// TestAnalyzerCallObserverAndTrace: a per-call observer sees only its own
// call's spans, while a trace given at construction records every call.
func TestAnalyzerCallObserverAndTrace(t *testing.T) {
	tr := NewTrace()
	var shared, own spanCollector
	a, err := NewAnalyzer(WithTrace(tr), WithObserver(&shared))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Analyze(context.Background(), nil, packedDevice(t, 5), &own); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := a.Analyze(context.Background(), nil, packedDevice(t, 6), nil); err != nil {
		t.Fatal(err)
	}
	if n := own.names()["image"]; n != 1 {
		t.Errorf("per-call observer saw %d image spans, want 1", n)
	}
	if n := shared.names()["image"]; n != 2 {
		t.Errorf("construction-time observer saw %d image spans, want 2", n)
	}
	images := 0
	for _, sp := range tr.rec.Spans() {
		if sp.Name == "image" {
			images++
		}
	}
	if images != 2 {
		t.Errorf("trace recorded %d image spans, want 2", images)
	}
}
