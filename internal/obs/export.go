package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"time"
)

// spanTree indexes finished spans for the exporters: roots in start order,
// children per parent in start order.
type spanTree struct {
	byID     map[int64]SpanData
	children map[int64][]SpanData
	roots    []SpanData
}

func buildTree(spans []SpanData) *spanTree {
	t := &spanTree{
		byID:     make(map[int64]SpanData, len(spans)),
		children: make(map[int64][]SpanData, len(spans)),
	}
	for _, s := range spans {
		t.byID[s.ID] = s
	}
	for _, s := range spans {
		if _, ok := t.byID[s.Parent]; s.Parent != 0 && ok {
			t.children[s.Parent] = append(t.children[s.Parent], s)
		} else {
			// True roots, plus orphans whose parent had not finished when
			// the spans were read: surfaced at top level rather than dropped.
			t.roots = append(t.roots, s)
		}
	}
	// Spans() hands us start order already, but be robust to any input.
	byStart := func(ss []SpanData) {
		sort.Slice(ss, func(i, j int) bool {
			if !ss[i].Start.Equal(ss[j].Start) {
				return ss[i].Start.Before(ss[j].Start)
			}
			return ss[i].ID < ss[j].ID
		})
	}
	byStart(t.roots)
	for _, ss := range t.children {
		byStart(ss)
	}
	return t
}

// WriteTree renders the spans as an indented human-readable tree — the
// `-trace` output. One line per span: name, duration, attributes, status.
func WriteTree(w io.Writer, spans []SpanData) error {
	t := buildTree(spans)
	for _, root := range t.roots {
		if err := writeTreeNode(w, t, root, 0); err != nil {
			return err
		}
	}
	return nil
}

func writeTreeNode(w io.Writer, t *spanTree, s SpanData, depth int) error {
	var b strings.Builder
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(s.Name)
	fmt.Fprintf(&b, " (%v)", s.Duration().Round(time.Microsecond))
	for _, a := range s.Attrs {
		fmt.Fprintf(&b, " %s=%s", a.Key, a.Value)
	}
	if s.Status != "" {
		fmt.Fprintf(&b, " [%s]", s.Status)
	}
	b.WriteByte('\n')
	if _, err := io.WriteString(w, b.String()); err != nil {
		return err
	}
	for _, c := range t.children[s.ID] {
		if err := writeTreeNode(w, t, c, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace_event entry (the JSON Array/Object
// format consumed by chrome://tracing and Perfetto).
type traceEvent struct {
	Name string            `json:"name"`
	Cat  string            `json:"cat,omitempty"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"`            // microseconds
	Dur  float64           `json:"dur,omitempty"` // microseconds
	Pid  int64             `json:"pid"`
	Tid  int64             `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the spans as Chrome trace_event JSON — the
// `-trace-json` output, loadable in chrome://tracing or Perfetto.
//
// Every span becomes a complete ("X") event. The viewer nests events on
// one thread lane by time containment and renders partial overlap
// wrongly, so lanes are assigned by interval scheduling: a child shares
// its parent's lane while it does not overlap a sibling already there,
// and overflow siblings (concurrent fan-out work) get fresh lanes. Lane
// metadata events name each lane after its first span.
func WriteChromeTrace(w io.Writer, spans []SpanData) error {
	t := buildTree(spans)
	var epoch time.Time
	for _, s := range spans {
		if epoch.IsZero() || s.Start.Before(epoch) {
			epoch = s.Start
		}
	}
	us := func(at time.Time) float64 { return float64(at.Sub(epoch).Nanoseconds()) / 1e3 }

	var events []traceEvent
	laneName := map[int64]string{}
	nextTid := int64(0)
	newLane := func(name string) int64 {
		nextTid++
		laneName[nextTid] = name
		return nextTid
	}

	var emit func(s SpanData, tid int64)
	emit = func(s SpanData, tid int64) {
		ev := traceEvent{
			Name: s.Name, Cat: "firmres", Ph: "X",
			Ts: us(s.Start), Dur: float64(s.Duration().Nanoseconds()) / 1e3,
			Pid: 1, Tid: tid,
		}
		if len(s.Attrs) > 0 || s.Status != "" {
			ev.Args = make(map[string]string, len(s.Attrs)+1)
			for _, a := range s.Attrs {
				ev.Args[a.Key] = a.Value
			}
			if s.Status != "" {
				ev.Args["status"] = s.Status
			}
		}
		events = append(events, ev)

		// Greedy interval scheduling over the children: lane 0 is the
		// parent's own lane (safe: each child nests inside the parent), and
		// a child joins the first lane free at its start time.
		laneTids := []int64{tid}
		laneEnds := []time.Time{{}}
		for _, c := range t.children[s.ID] {
			placed := false
			for k := range laneTids {
				if !laneEnds[k].After(c.Start) {
					laneEnds[k] = c.End
					emit(c, laneTids[k])
					placed = true
					break
				}
			}
			if !placed {
				lt := newLane(s.Name + "/" + c.Name)
				laneTids = append(laneTids, lt)
				laneEnds = append(laneEnds, c.End)
				emit(c, lt)
			}
		}
	}
	for _, root := range t.roots {
		name := root.Name
		if dev := root.Attr("device"); dev != "" {
			name += " " + dev
		}
		emit(root, newLane(name))
	}

	meta := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]string{"name": "firmres"},
	}}
	tids := make([]int64, 0, len(laneName))
	for tid := range laneName {
		tids = append(tids, tid)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	for _, tid := range tids {
		meta = append(meta, traceEvent{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: tid,
			Args: map[string]string{"name": laneName[tid]},
		})
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{
		TraceEvents:     append(meta, events...),
		DisplayTimeUnit: "ms",
	})
}

// WritePrometheus renders a metrics snapshot in the Prometheus text
// exposition format, keys sorted, each prefixed with "firmres_". Snapshot
// keys are already name{label="value"}-shaped, so they pass through.
func WritePrometheus(w io.Writer, snapshot map[string]int64) error {
	keys := make([]string, 0, len(snapshot))
	for k := range snapshot {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "firmres_%s %d\n", k, snapshot[k]); err != nil {
			return err
		}
	}
	return nil
}

// MetricsHandler adapts a snapshot source into an HTTP scrape endpoint:
// each GET calls snap and renders the result with WritePrometheus. snap is
// called once per request on the request goroutine, so sources must be
// safe for concurrent use (Metrics.Snapshot already is).
func MetricsHandler(snap func() map[string]int64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := WritePrometheus(w, snap()); err != nil {
			// Headers are gone; all we can do is abort the body.
			return
		}
	})
}
