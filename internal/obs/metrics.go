package obs

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics is a registry of the counters and histograms the metric table
// (table.go) declares: one slot per counter and four per histogram,
// indexed from the identity's dense ID, and a bit per identity marking
// those looked up, which are the ones a snapshot holds. Safe for
// concurrent use without a lock; a nil *Metrics hands out nil instruments,
// which are no-ops, so disabled runs pay only a nil check.
//
// Determinism contract: the pipeline only feeds metrics with work-derived
// values (items processed, trees built, diagnostics emitted) — never with
// wall-clock durations or schedule-dependent observations — so a snapshot
// is byte-identical at any worker count.
type Metrics struct {
	slots   []atomic.Int64
	touched []atomic.Uint64 // bit id%64 of word id/64: identity id was looked up
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		slots:   make([]atomic.Int64, numSlots),
		touched: make([]atomic.Uint64, (len(identities)+63)/64),
	}
	for i := range identities {
		if id := &identities[i]; id.hist {
			m.slots[id.slot+2].Store(math.MaxInt64) // min
			m.slots[id.slot+3].Store(math.MinInt64) // max
		}
	}
	return m
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

// Counter returns the declared counter for name and its labels, passed as
// alternating key, value pairs in any key order. It allocates nothing. An
// identity the metric table does not declare as a counter panics.
// Nil-safe: a nil registry returns a nil (no-op) counter.
func (m *Metrics) Counter(name string, labels ...string) *Counter {
	if m == nil {
		return nil
	}
	id := lookup(counterKind, name, labels)
	m.touch(id)
	return (*Counter)(&m.slots[identities[id].slot])
}

// Histogram returns the declared histogram for name and its labels, as
// Counter does.
func (m *Metrics) Histogram(name string, labels ...string) *Histogram {
	if m == nil {
		return nil
	}
	id := lookup(histogramKind, name, labels)
	m.touch(id)
	s := identities[id].slot
	return (*Histogram)(m.slots[s : s+4])
}

// touch marks identity id looked up.
func (m *Metrics) touch(id int) {
	w, bit := &m.touched[id/64], uint64(1)<<(id%64)
	for old := w.Load(); old&bit == 0; old = w.Load() {
		if w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

// Snapshot flattens the registry into key → value, one entry per counter
// looked up and, per histogram looked up, <name>_count plus, once it has
// observed a value, <name>_sum, <name>_min and <name>_max (labels
// preserved). The keys are the table's, rendered at init. Nil-safe: a nil
// registry snapshots to nil.
func (m *Metrics) Snapshot() map[string]int64 {
	if m == nil {
		return nil
	}
	n := 0
	m.eachTouched(func(id *identity) { n += m.entries(id) })
	out := make(map[string]int64, n)
	m.eachTouched(func(id *identity) {
		for c := range m.entries(id) {
			out[id.keys[c]] = m.slots[id.slot+c].Load()
		}
	})
	return out
}

// entries is how many snapshot entries an identity has now: a counter's
// one, a histogram's count alone until it observes a value, then all four.
func (m *Metrics) entries(id *identity) int {
	if id.hist && m.slots[id.slot].Load() > 0 {
		return 4
	}
	return 1
}

// eachTouched calls fn with every identity looked up, in ID order.
func (m *Metrics) eachTouched(fn func(id *identity)) {
	for w := range m.touched {
		for word := m.touched[w].Load(); word != 0; word &= word - 1 {
			fn(&identities[64*w+bits.TrailingZeros64(word)])
		}
	}
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

// Counter is a monotonically increasing integer: one registry slot.
// Nil-safe methods.
type Counter atomic.Int64

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c != nil {
		(*atomic.Int64)(c).Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the counter. Nil-safe: zero.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return (*atomic.Int64)(c).Load()
}

// Histogram tracks the count, sum, minimum, and maximum of observed
// integer values — all order-independent, hence deterministic at any
// worker count — in four registry slots, in that order. The minimum and
// maximum start at the extremes of int64, so each observation only ever
// lowers or raises them. Nil-safe methods.
type Histogram [4]atomic.Int64

// Observe records one value. The count goes last, so a snapshot that sees
// an observation counted sees its minimum and maximum too.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	swapWhile(&h[2], v, func(old int64) bool { return v < old })
	swapWhile(&h[3], v, func(old int64) bool { return v > old })
	h[1].Add(v)
	h[0].Add(1)
}

// swapWhile stores v in a for as long as better says v beats what a holds.
func swapWhile(a *atomic.Int64, v int64, better func(old int64) bool) {
	for old := a.Load(); better(old); old = a.Load() {
		if a.CompareAndSwap(old, v) {
			return
		}
	}
}
