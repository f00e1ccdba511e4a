package obs

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmres/internal/parallel"
)

// TestSpanNestingUnderPool drives the recorder exactly the way the
// pipeline does — one root, stage children, inner-loop grandchildren
// fanning out on the parallel pool — and checks the recorded tree. Run
// under -race (make check does), this is the concurrency contract.
func TestSpanNestingUnderPool(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan(nil, "image", String("device", "dev_t"))
	const stages, items = 3, 16
	for s := 0; s < stages; s++ {
		stage := root.Child("stage", Int("idx", s))
		ctx := ContextWith(context.Background(), stage)
		parallel.ForEach(ctx, 8, items, func(i int) {
			sp := StartChild(ctx, "item", Int("i", i))
			sp.AddAttr(String("k", "v"))
			sp.End()
		})
		stage.End()
	}
	root.SetStatus("partial")
	root.End()

	spans := rec.Spans()
	if want := 1 + stages + stages*items; len(spans) != want {
		t.Fatalf("recorded %d spans, want %d", len(spans), want)
	}
	byID := map[int64]SpanData{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var roots, stageSpans, itemSpans int
	for _, s := range spans {
		if s.End.Before(s.Start) {
			t.Errorf("span %d (%s): End before Start", s.ID, s.Name)
		}
		switch s.Name {
		case "image":
			roots++
			if s.Parent != 0 {
				t.Errorf("root has parent %d", s.Parent)
			}
			if s.Status != "partial" {
				t.Errorf("root status = %q, want partial", s.Status)
			}
		case "stage":
			stageSpans++
			if byID[s.Parent].Name != "image" {
				t.Errorf("stage parent = %q, want image", byID[s.Parent].Name)
			}
		case "item":
			itemSpans++
			p := byID[s.Parent]
			if p.Name != "stage" {
				t.Errorf("item parent = %q, want stage", p.Name)
			}
			if s.Start.Before(p.Start) {
				t.Errorf("item started before its stage")
			}
		}
	}
	if roots != 1 || stageSpans != stages || itemSpans != stages*items {
		t.Fatalf("got %d roots, %d stages, %d items", roots, stageSpans, itemSpans)
	}
}

func TestSpanEndIdempotent(t *testing.T) {
	rec := NewRecorder()
	sp := rec.StartSpan(nil, "x")
	sp.End()
	sp.End()
	if n := len(rec.Spans()); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	sp := rec.StartSpan(nil, "x", String("k", "v"))
	if sp != nil {
		t.Fatal("nil recorder returned a live span")
	}
	sp.AddAttr(Int("n", 1))
	sp.SetStatus("oops")
	if sp.Child("y") != nil {
		t.Fatal("nil span returned a live child")
	}
	sp.End()
	if sp.Duration() != 0 {
		t.Fatal("nil span has nonzero duration")
	}
	if got := rec.Spans(); got != nil {
		t.Fatalf("nil recorder has spans: %v", got)
	}

	var m *Metrics
	m.Counter("c", "k", "v").Add(3)
	m.Histogram("h").Observe(7)
	if snap := m.Snapshot(); snap != nil {
		t.Fatalf("nil metrics snapshot: %v", snap)
	}
	if v := m.Counter("c").Value(); v != 0 {
		t.Fatalf("nil counter value = %d", v)
	}
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context carries a span")
	}
	if StartChild(context.Background(), "x") != nil {
		t.Fatal("StartChild on empty context returned a live span")
	}
}

// TestMetricsDeterministicAcrossWorkers performs the same multiset of
// observations on 1 and 8 workers and requires identical snapshots — the
// property Report.Metrics relies on.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) map[string]int64 {
		m := NewMetrics()
		parallel.ForEach(context.Background(), workers, 100, func(i int) {
			m.Counter("probe_results_total", "class", []string{"granted", "denied"}[i%2]).Inc()
			m.Histogram("fields_per_message").Observe(int64(i * i % 17))
		})
		return m.Snapshot()
	}
	seq, par := run(1), run(8)
	if len(seq) != len(par) {
		t.Fatalf("snapshot sizes differ: %d vs %d", len(seq), len(par))
	}
	for k, v := range seq {
		if par[k] != v {
			t.Errorf("%s: -j1 %d, -j8 %d", k, v, par[k])
		}
	}
	if seq[`probe_results_total{class="granted"}`] != 50 || seq[`probe_results_total{class="denied"}`] != 50 {
		t.Errorf("counters wrong: %v", seq)
	}
	if seq["fields_per_message_count"] != 100 || seq["fields_per_message_min"] != 0 || seq["fields_per_message_max"] != 16 {
		t.Errorf("histogram = %v, want 100 values from 0 to 16", seq)
	}
}

func TestKeySortsLabels(t *testing.T) {
	if got, want := Key("m", "b", "2", "a", "1"), `m{a="1",b="2"}`; got != want {
		t.Fatalf("Key = %q, want %q", got, want)
	}
	if got := Key("m"); got != "m" {
		t.Fatalf("Key no labels = %q", got)
	}
}

// TestLabelOrderSharesInstrument: an identity's labels may come in any key
// order and reach one instrument, whose snapshot keys are rendered as Key
// renders them, labels sorted by key. A histogram's components are
// counted once it observes a value, and its count alone before.
func TestLabelOrderSharesInstrument(t *testing.T) {
	m := NewMetrics()
	m.Counter("errors_total", "stage", "lint-passes", "kind", "stage-panic").Inc()
	m.Counter("errors_total", "kind", "stage-panic", "stage", "lint-passes").Add(2)
	m.Histogram("taint_steps_per_mft").Observe(4)
	m.Histogram("taint_steps_per_mft").Observe(6)
	m.Histogram("taint_frontier_per_mft")
	m.Counter("mfts_total")
	want := map[string]int64{
		Key("errors_total", "kind", "stage-panic", "stage", "lint-passes"): 3,
		"taint_steps_per_mft_count":                                        2,
		"taint_steps_per_mft_sum":                                          10,
		"taint_steps_per_mft_min":                                          4,
		"taint_steps_per_mft_max":                                          6,
		"taint_frontier_per_mft_count":                                     0,
		"mfts_total":                                                       0,
	}
	got := m.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v, want %v", got, want)
	}
	for k, v := range want {
		if n, ok := got[k]; !ok || n != v {
			t.Errorf("%s = %d (present %v), want %d", k, n, ok, v)
		}
	}
}

// TestUndeclaredIdentityPanics: an identity the metric table does not
// declare, whatever part of it is missing, fails the lookup loudly.
func TestUndeclaredIdentityPanics(t *testing.T) {
	m := NewMetrics()
	for _, tc := range []struct {
		name   string
		lookup func()
	}{
		{"unknown name", func() { m.Counter("work_total") }},
		{"unknown label value", func() { m.Counter("lint_diags_total", "rule", "no-such-rule") }},
		{"unknown label key", func() { m.Counter("lint_diags_total", "check", "dead-store") }},
		{"missing label", func() { m.Counter("errors_total", "kind", "stage-panic") }},
		{"extra label", func() { m.Counter("mfts_total", "kind", "stage-panic") }},
		{"histogram as counter", func() { m.Counter("fields_per_message") }},
		{"counter as histogram", func() { m.Histogram("mfts_total") }},
	} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("%s: lookup did not panic", tc.name)
				} else if !strings.Contains(fmt.Sprint(r), "not declared") {
					t.Errorf("%s: panic %v does not say the identity is not declared", tc.name, r)
				}
			}()
			tc.lookup()
		}()
	}
	if snap := m.Snapshot(); len(snap) != 0 {
		t.Errorf("failed lookups left %v in the snapshot", snap)
	}
}

// TestEveryIdentityRendersAsKey: every declared identity's snapshot key is
// the one Key renders for it, and no two identities share one.
func TestEveryIdentityRendersAsKey(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range table {
		var walk func(pairs []string)
		walk = func(pairs []string) {
			if j := len(pairs) / 2; j < len(d.labels) {
				for _, v := range d.labels[j].values {
					walk(append(append([]string(nil), pairs...), d.labels[j].key, v))
				}
				return
			}
			m := NewMetrics()
			if d.kind == histogramKind {
				m.Histogram(d.name, pairs...).Observe(1)
			} else {
				m.Counter(d.name, pairs...).Inc()
			}
			for k := range m.Snapshot() {
				if seen[k] {
					t.Errorf("key %s rendered twice", k)
				}
				seen[k] = true
			}
			if key := Key(d.name, pairs...); d.kind == counterKind && m.Snapshot()[key] != 1 {
				t.Errorf("counter %s not under its Key: %v", key, m.Snapshot())
			}
		}
		walk(nil)
	}
	if want := numSlots; len(seen) != want {
		t.Errorf("%d keys rendered, want one per slot, %d", len(seen), want)
	}
}

func TestMergeSnapshots(t *testing.T) {
	got := MergeSnapshots(nil, map[string]int64{"a": 1})
	got = MergeSnapshots(got, map[string]int64{"a": 2, "b": 3})
	if got["a"] != 3 || got["b"] != 3 {
		t.Fatalf("merge = %v", got)
	}
	if MergeSnapshots(nil, nil) != nil {
		t.Fatal("merging nothing allocated a map")
	}
}

// TestObserverSeesAllEvents checks that an attached observer receives one
// start and one end per span down to the stages (depth 1), under
// concurrency, while the inner-loop spans below them reach only a keeping
// recorder: a tee hands them on to the recorder behind it unseen, and an
// observer-only tee starts none, so StartChild under one of its stages
// returns a nil span and allocates nothing.
func TestObserverSeesAllEvents(t *testing.T) {
	const stages, items = 4, 8
	for _, tc := range []struct {
		name string
		up   *Recorder
		kept int
	}{
		{"keeping", NewRecorder(), 1 + stages + 2*stages*items},
		{"observer-only", nil, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var mu sync.Mutex
			starts, ends := map[string]int{}, map[string]int{}
			rec := Tee(tc.up, funcObserver{
				start: func(d SpanData) { mu.Lock(); starts[d.Name]++; mu.Unlock() },
				end:   func(d SpanData) { mu.Lock(); ends[d.Name]++; mu.Unlock() },
			})
			root := rec.StartSpan(nil, "image")
			ctx := ContextWith(context.Background(), root)
			parallel.ForEach(ctx, 4, stages, func(int) {
				stage := StartChild(ctx, "stage")
				sctx := ContextWith(ctx, stage)
				for i := 0; i < items; i++ {
					item := StartChild(sctx, "item")
					if (item != nil) != (tc.up != nil) {
						t.Errorf("grandchild span live = %t, want %t", item != nil, tc.up != nil)
					}
					item.Child("sub").End()
					item.End()
				}
				stage.End()
			})
			root.End()
			want := map[string]int{"image": 1, "stage": stages}
			if !reflect.DeepEqual(starts, want) || !reflect.DeepEqual(ends, want) {
				t.Fatalf("observer saw starts %v, ends %v; want %v each", starts, ends, want)
			}
			if n := len(rec.Spans()); n != 0 {
				t.Errorf("tee kept %d spans, want 0", n)
			}
			kept := tc.up.Spans()
			if len(kept) != tc.kept {
				t.Errorf("upstream recorder kept %d spans, want %d", len(kept), tc.kept)
			}
			byID := map[int64]string{}
			for _, d := range kept {
				byID[d.ID] = d.Name
			}
			parent := map[string]string{"stage": "image", "item": "stage", "sub": "item"}
			for _, d := range kept {
				if d.Name != "image" && byID[d.Parent] != parent[d.Name] {
					t.Errorf("kept %q span has parent %q, want %q", d.Name, byID[d.Parent], parent[d.Name])
				}
			}
		})
	}
}

// TestTeeSharesUpstreamIDs: spans started through two tees of one recorder
// land there with distinct IDs, and each tee's observer sees only its own.
func TestTeeSharesUpstreamIDs(t *testing.T) {
	up := NewRecorder()
	var a, b []int64
	ta := Tee(up, funcObserver{start: func(SpanData) {}, end: func(d SpanData) { a = append(a, d.ID) }})
	tb := Tee(up, funcObserver{start: func(SpanData) {}, end: func(d SpanData) { b = append(b, d.ID) }})
	ra := ta.StartSpan(nil, "image")
	rb := tb.StartSpan(nil, "image")
	ra.Child("stage").End()
	rb.End()
	ra.End()
	if len(a) != 2 || len(b) != 1 {
		t.Fatalf("tee observers saw %d and %d spans, want 2 and 1", len(a), len(b))
	}
	ids := map[int64]bool{}
	for _, sp := range up.Spans() {
		ids[sp.ID] = true
	}
	if len(ids) != 3 {
		t.Errorf("upstream kept %d distinct span IDs, want 3", len(ids))
	}
}

type funcObserver struct{ start, end func(SpanData) }

func (f funcObserver) SpanStart(d SpanData) { f.start(d) }
func (f funcObserver) SpanEnd(d SpanData)   { f.end(d) }

func TestProgressOutput(t *testing.T) {
	var buf strings.Builder
	rec := Tee(nil, NewProgress(&buf, 2))
	for _, dev := range []string{"dev_a", "dev_b"} {
		img := rec.StartSpan(nil, "image", String("device", dev))
		img.Child("pinpoint-executables").End()
		img.End()
	}
	out := buf.String()
	for _, want := range []string{"progress: 1/2 images (50%)", "dev_a done in", "progress: 2/2 images (100%)", "dev_b done in"} {
		if !strings.Contains(out, want) {
			t.Errorf("progress output missing %q:\n%s", want, out)
		}
	}
}

func TestProgressOpenEnded(t *testing.T) {
	var buf strings.Builder
	rec := Tee(nil, NewProgress(&buf, 0))
	rec.StartSpan(nil, "image", String("device", "dev_a")).End()
	if out := buf.String(); !strings.HasPrefix(out, "progress: 1 images  dev_a done in") {
		t.Errorf("open-ended progress line = %q", out)
	}
}

// TestProgressLinesInOrder ends images concurrently into a slow writer:
// every image gets a line, each numbered one above the line before and
// naming the device its image span gained after it started, and the
// writer is never entered by two calls at once.
func TestProgressLinesInOrder(t *testing.T) {
	const images = 48
	w := &slowWriter{}
	rec := Tee(nil, NewProgress(w, images))
	parallel.ForEach(context.Background(), 8, images, func(i int) {
		img := rec.StartSpan(nil, "image")
		img.Child("pinpoint-executables").End()
		img.AddAttr(String("device", fmt.Sprintf("dev_%02d", i)))
		img.End()
	})
	if w.overlaps.Load() != 0 {
		t.Errorf("%d writes overlapped another", w.overlaps.Load())
	}
	if len(w.lines) != images {
		t.Fatalf("wrote %d lines, want %d", len(w.lines), images)
	}
	for i, l := range w.lines {
		var n, total int
		if _, err := fmt.Sscanf(l, "progress: %d/%d images", &n, &total); err != nil || n != i+1 || !strings.Contains(l, " dev_") {
			t.Errorf("line %d = %q, want it numbered %d and naming its device", i, l, i+1)
		}
	}
}

// slowWriter records each write after a pause, so a write that starts
// late but finishes first lands first, as on a slow terminal.
type slowWriter struct {
	busy, overlaps atomic.Int32
	mu             sync.Mutex
	lines          []string
}

func (w *slowWriter) Write(b []byte) (int, error) {
	if w.busy.Add(1) > 1 {
		w.overlaps.Add(1)
	}
	time.Sleep(200 * time.Microsecond)
	w.mu.Lock()
	w.lines = append(w.lines, string(b))
	w.mu.Unlock()
	w.busy.Add(-1)
	return len(b), nil
}
