package main

import (
	"fmt"
	"os"
	"time"

	"firmres/internal/obs"
)

// spanLayer maps each span name the benchmark records to its per-layer time
// metric.
var spanLayer = map[string]string{
	"image.unpack":     "image.unpack_us",
	"binfmt.unmarshal": "binfmt.unmarshal_us",
	"strip.recover":    "strip.recover_us",
	"pcode.lift":       "pcode.lift_us",
	"facts.cfg":        "facts.cfg_us",
	"facts.defuse":     "facts.defuse_us",
	"facts.dom":        "facts.dom_us",
	"facts.constprop":  "facts.constprop_us",
	"identify":         "identify.us",
	"taint":            "taint.us",
	"mft":              "mft.us",
	"slices":           "slices.us",
	"semantics":        "semantics.us",
	"fields":           "fields.us",
	"formcheck":        "formcheck.us",
	"lint":             "lint.us",
	"probe":            "probe.us",
	"cache.key":        "cache.key_us",
	"cache.get":        "cache.get_us",
	"cache.put":        "cache.put_us",
	"report.encode":    "report.encode_us",
	"report.decode":    "report.decode_us",
}

// imageTimes is the self time of every span name within one root span.
type imageTimes struct {
	root  time.Duration            // the root span's own duration
	self  map[string]time.Duration // span name -> summed self time
	names map[string]bool
}

// selfTimes groups spans by their root span and returns each root's per-name
// self times. A span's self time is its duration minus its children's; the
// replay runs one call at a time, so children never overlap.
func selfTimes(spans []obs.SpanData) []imageTimes {
	byID := make(map[int64]obs.SpanData, len(spans))
	child := map[int64]time.Duration{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			child[s.Parent] += s.Duration()
		}
	}
	rootOf := func(s obs.SpanData) int64 {
		for s.Parent != 0 {
			p, ok := byID[s.Parent]
			if !ok {
				break
			}
			s = p
		}
		return s.ID
	}
	idx := map[int64]int{}
	var out []imageTimes
	for _, s := range spans {
		r := rootOf(s)
		i, ok := idx[r]
		if !ok {
			i = len(out)
			idx[r] = i
			out = append(out, imageTimes{root: byID[r].Duration(), self: map[string]time.Duration{}, names: map[string]bool{}})
		}
		out[i].self[s.Name] += s.Duration() - child[s.ID]
		out[i].names[s.Name] = true
	}
	return out
}

// layerTimes sets every span layer's metric to the median per-image self
// time, in microseconds, over the images in which the layer ran, and
// returns each metric's total self time.
func layerTimes(spans []obs.SpanData, m metricSet) map[string]float64 {
	per := map[string][]float64{}
	total := map[string]float64{}
	for _, it := range selfTimes(spans) {
		for name := range it.names {
			if metric, ok := spanLayer[name]; ok {
				us := float64(it.self[name].Nanoseconds()) / 1e3
				per[metric] = append(per[metric], us)
				total[metric] += us
			}
		}
	}
	for metric, xs := range per {
		m.set(metric, median(xs), len(xs))
	}
	return total
}

// coverage is the share of the roots' wall time that named layer spans
// account for as self time.
func coverage(spans []obs.SpanData) float64 {
	var wall, layers time.Duration
	for _, it := range selfTimes(spans) {
		wall += it.root
		for name, d := range it.self {
			if _, ok := spanLayer[name]; ok {
				layers += d
			}
		}
	}
	return ratio(float64(layers), float64(wall))
}

// writeTrace writes the spans as a Chrome trace file.
func writeTrace(path string, spans []obs.SpanData) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}

// counts sets per-image count metrics: each total divided by images.
func counts(m metricSet, images int, totals map[string]int) {
	for name, v := range totals {
		m.set(name, ratio(float64(v), float64(images)), images)
	}
}
