package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Metrics is a registry of named counters and histograms. Safe for
// concurrent use; a nil *Metrics hands out nil instruments, which are
// no-ops, so disabled runs pay only a nil check.
//
// Determinism contract: the pipeline only feeds metrics with work-derived
// values (items processed, trees built, diagnostics emitted) — never with
// wall-clock durations or schedule-dependent observations — so a snapshot
// is byte-identical at any worker count.
type Metrics struct {
	mu       sync.Mutex
	counters map[instKey]*Counter
	hists    map[instKey]*Histogram
}

// maxKeyPairs is how many label pairs an instKey holds inline: the most any
// instrument in this repository carries is two.
const maxKeyPairs = 3

// instKey identifies an instrument without rendering it: the name and the
// label pairs sorted by label key, so looking up an existing instrument
// allocates nothing. Identities with more than maxKeyPairs pairs key by
// their rendered text in name instead.
type instKey struct {
	name   string
	labels [2 * maxKeyPairs]string
}

// keyOf builds the lookup key for one identity (see Key for the labels).
func keyOf(name string, labels []string) instKey {
	n := len(labels) / 2
	if n > maxKeyPairs {
		return instKey{name: Key(name, labels...)}
	}
	k := instKey{name: name}
	copy(k.labels[:], labels[:2*n])
	// Insertion sort by label key: a handful of pairs, no allocation.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && k.labels[2*j] < k.labels[2*j-2]; j-- {
			k.labels[2*j], k.labels[2*j-2] = k.labels[2*j-2], k.labels[2*j]
			k.labels[2*j+1], k.labels[2*j-1] = k.labels[2*j-1], k.labels[2*j+1]
		}
	}
	return k
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: map[instKey]*Counter{},
		hists:    map[instKey]*Histogram{},
	}
}

// Key renders a metric identity as Prometheus-style text:
// name{k="v",k2="v2"} with labels sorted by key, or bare name without
// labels. Labels are passed as alternating key, value pairs.
func Key(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	type kv struct{ k, v string }
	pairs := make([]kv, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, kv{labels[i], labels[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(p.v)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns the named counter, creating it on first use; only the
// creating call renders its key. Nil-safe: a nil registry returns a nil
// (no-op) counter.
func (m *Metrics) Counter(name string, labels ...string) *Counter {
	if m == nil {
		return nil
	}
	k := keyOf(name, labels)
	m.mu.Lock()
	c, ok := m.counters[k]
	if !ok {
		c = &Counter{key: Key(name, labels...)}
		m.counters[k] = c
	}
	m.mu.Unlock()
	return c
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe, like Counter.
func (m *Metrics) Histogram(name string, labels ...string) *Histogram {
	if m == nil {
		return nil
	}
	k := keyOf(name, labels)
	m.mu.Lock()
	h, ok := m.hists[k]
	if !ok {
		h = &Histogram{key: Key(name, labels...)}
		m.hists[k] = h
	}
	m.mu.Unlock()
	return h
}

// Snapshot flattens the registry into key → value. Histograms expand into
// <name>_count, <name>_sum, <name>_min, and <name>_max (labels preserved).
// Nil-safe: a nil registry snapshots to nil.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.counters)+4*len(m.hists))
	for _, c := range m.counters {
		out[c.key] = c.v.Load()
	}
	for _, h := range m.hists {
		name, labels := splitKey(h.key)
		count, sum, min, max := h.stats()
		out[name+"_count"+labels] = count
		if count > 0 {
			out[name+"_sum"+labels] = sum
			out[name+"_min"+labels] = min
			out[name+"_max"+labels] = max
		}
	}
	return out
}

// splitKey separates a rendered key into its name and "{...}" label part.
func splitKey(key string) (name, labels string) {
	if i := strings.IndexByte(key, '{'); i >= 0 {
		return key[:i], key[i:]
	}
	return key, ""
}

// MergeSnapshots folds src into dst (allocating dst when nil) and returns
// it — the batch aggregation primitive. Counter and histogram _count/_sum
// components add; histogram _min/_max components combine as the running
// minimum and maximum, so a merged snapshot reads like one histogram
// observed every value.
func MergeSnapshots(dst, src map[string]int64) map[string]int64 {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]int64, len(src))
	}
	for k, v := range src {
		old, ok := dst[k]
		switch {
		case !ok:
			dst[k] = v
		case histComponent(k, "_min"):
			if v < old {
				dst[k] = v
			}
		case histComponent(k, "_max"):
			if v > old {
				dst[k] = v
			}
		default:
			dst[k] = old + v
		}
	}
	return dst
}

// histComponent reports whether a snapshot key is the given histogram
// component: its name part (before any label braces) ends with the suffix.
func histComponent(key, suffix string) bool {
	name, _ := splitKey(key)
	return strings.HasSuffix(name, suffix)
}

// Counter is a monotonically increasing integer. Nil-safe methods.
type Counter struct {
	v   atomic.Int64
	key string // rendered identity (Key)
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Nil-safe: zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram tracks the count, sum, minimum, and maximum of observed
// integer values — all order-independent, hence deterministic at any
// worker count. Nil-safe methods.
type Histogram struct {
	key      string // rendered identity (Key)
	mu       sync.Mutex
	count    int64
	sum      int64
	min, max int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.mu.Unlock()
}

func (h *Histogram) stats() (count, sum, min, max int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count, h.sum, h.min, h.max
}
