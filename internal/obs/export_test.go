package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"firmres/internal/parallel"
)

// recordRun builds a realistic span tree: one image, two stages, the
// second fanning inner-loop work out on the pool.
func recordRun(t *testing.T) []SpanData {
	t.Helper()
	rec := NewRecorder()
	img := rec.StartSpan(nil, "image", String("device", "dev_x"), String("version", "1.0"))
	s1 := img.Child("pinpoint-executables")
	s1.Child("candidate", String("path", "/bin/cloudd")).End()
	s1.End()
	s2 := img.Child("identify-fields")
	ctx := ContextWith(context.Background(), s2)
	parallel.ForEach(ctx, 4, 6, func(i int) {
		StartChild(ctx, "taint-site", Int("site", i)).End()
	})
	s2.SetStatus("partial")
	s2.End()
	img.End()
	return rec.Spans()
}

// TestChromeTraceRoundTrip writes the trace-event JSON and re-reads it
// through encoding/json, checking the schema Chrome/Perfetto require:
// complete events with name/ph/ts/dur/pid/tid, children contained in
// their parents' extent, and metadata naming the lanes.
func TestChromeTraceRoundTrip(t *testing.T) {
	spans := recordRun(t)
	var buf strings.Builder
	if err := WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Ts   float64           `json:"ts"`
			Dur  float64           `json:"dur"`
			Pid  int64             `json:"pid"`
			Tid  int64             `json:"tid"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(buf.String()), &file); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v", err)
	}
	if file.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", file.DisplayTimeUnit)
	}
	counts := map[string]int{}
	var imgTs, imgEnd float64
	for _, ev := range file.TraceEvents {
		switch ev.Ph {
		case "M":
			continue
		case "X":
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
		counts[ev.Name]++
		if ev.Ts < 0 || ev.Dur < 0 || ev.Pid != 1 {
			t.Errorf("event %s: bad ts/dur/pid %+v", ev.Name, ev)
		}
		if ev.Name == "image" {
			imgTs, imgEnd = ev.Ts, ev.Ts+ev.Dur
			if ev.Args["device"] != "dev_x" {
				t.Errorf("image args = %v", ev.Args)
			}
		}
	}
	if counts["image"] != 1 || counts["pinpoint-executables"] != 1 ||
		counts["identify-fields"] != 1 || counts["candidate"] != 1 || counts["taint-site"] != 6 {
		t.Fatalf("event counts = %v", counts)
	}
	const slack = 1e-3 // float microsecond rounding
	for _, ev := range file.TraceEvents {
		if ev.Ph != "X" || ev.Name == "image" {
			continue
		}
		if ev.Ts < imgTs-slack || ev.Ts+ev.Dur > imgEnd+slack {
			t.Errorf("%s [%f, %f] escapes image [%f, %f]", ev.Name, ev.Ts, ev.Ts+ev.Dur, imgTs, imgEnd)
		}
	}
	// Lanes must never hold partially-overlapping events (the viewer
	// mis-nests them); containment or disjointness only.
	type iv struct{ a, b float64 }
	lanes := map[int64][]iv{}
	for _, ev := range file.TraceEvents {
		if ev.Ph == "X" {
			lanes[ev.Tid] = append(lanes[ev.Tid], iv{ev.Ts, ev.Ts + ev.Dur})
		}
	}
	for tid, ivs := range lanes {
		for i := 0; i < len(ivs); i++ {
			for j := i + 1; j < len(ivs); j++ {
				x, y := ivs[i], ivs[j]
				overlap := x.a < y.b-slack && y.a < x.b-slack
				nested := (x.a <= y.a+slack && y.b <= x.b+slack) || (y.a <= x.a+slack && x.b <= y.b+slack)
				if overlap && !nested {
					t.Errorf("tid %d: partial overlap [%f,%f] vs [%f,%f]", tid, x.a, x.b, y.a, y.b)
				}
			}
		}
	}
}

func TestWriteTree(t *testing.T) {
	spans := recordRun(t)
	var buf strings.Builder
	if err := WriteTree(&buf, spans); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"image (", "device=dev_x",
		"\n  pinpoint-executables (",
		"\n    candidate (", "path=/bin/cloudd",
		"\n  identify-fields (", "[partial]",
		"\n    taint-site (",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("tree output missing %q:\n%s", want, out)
		}
	}
	if got := strings.Count(out, "taint-site"); got != 6 {
		t.Errorf("tree has %d taint-site lines, want 6", got)
	}
}

func TestWritePrometheus(t *testing.T) {
	m := NewMetrics()
	m.Counter("mfts_total").Add(4)
	m.Counter("message_fields_total", "label", "Dev-Secret").Add(2)
	m.Histogram("taint_steps_per_mft").Observe(10)
	m.Histogram("taint_steps_per_mft").Observe(30)
	var buf strings.Builder
	if err := WritePrometheus(&buf, m.Snapshot()); err != nil {
		t.Fatal(err)
	}
	got := buf.String()
	want := `firmres_message_fields_total{label="Dev-Secret"} 2
firmres_mfts_total 4
firmres_taint_steps_per_mft_count 2
firmres_taint_steps_per_mft_max 30
firmres_taint_steps_per_mft_min 10
firmres_taint_steps_per_mft_sum 40
`
	if got != want {
		t.Errorf("prometheus output:\n%s\nwant:\n%s", got, want)
	}
}
