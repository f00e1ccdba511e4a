// Heap-allocation figures are only meaningful without race
// instrumentation, which perturbs escape analysis and allocation behavior.
//go:build !race

package firmres

import (
	"context"
	"runtime"
	"runtime/debug"
	"sort"
	"sync/atomic"
	"testing"
)

// observerAllocBudget is the ceiling on the heap bytes a per-call Observer
// may add to one analysis. It sees the image span and one span per stage,
// about 2 KB; when every inner-loop span was built for it as well (about
// 100 spans per image), it added about 61 KB.
const observerAllocBudget = 8 << 10

// metricsAllocBudget is the ceiling on the heap bytes WithMetrics may add
// to one analysis: a registry of one slot per declared identity, the
// snapshot map and encoding/json's sort of its keys, about 7 KB. When each
// analysis built a name-keyed registry of its own, it added 24-31 KB.
const metricsAllocBudget = 8 << 10

// stageCounter is a FirmServe-shaped observer: it notes each finished
// stage span, a child of the image span.
type stageCounter struct{ stages atomic.Int64 }

func (c *stageCounter) SpanStart(SpanEvent) {}
func (c *stageCounter) SpanEnd(e SpanEvent) {
	if e.Parent != 0 {
		c.stages.Add(1)
	}
}

// TestObserverAllocBudget runs devices 1-20 through one WithLint and
// WithMetrics Analyzer, as FirmServe runs its jobs, with and without a
// per-call Observer, and bounds what the observer adds per analysis; and
// through a second Analyzer without WithMetrics, and bounds what
// WithMetrics adds. Each run encodes its reports into a buffer of its own,
// as a FirmServe worker does. After a warm-up pass the three runs take
// turns over nine passes, and each cost is the median over the passes of
// that pass's difference between two runs, so a pass one run lost to a
// stray allocation moves one difference, not the figure. Each pass of a
// run starts from a collection and runs with the collector off, so no
// collection falls midway through a pass; and on one P, so encoding/json's
// per-P pool hands every report encode the state the last one grew: on
// two, an encode that found none regrew one, about 66 KB, in a random
// share of the passes. The counts come from runtime.ReadMemStats, which
// flushes every P's allocation cache and so counts each small object as it
// is allocated.
func TestObserverAllocBudget(t *testing.T) {
	imgs := make([][]byte, 20)
	for i := range imgs {
		imgs[i] = packedDevice(t, i+1)
	}
	metered, err := NewAnalyzer(WithLint(), WithMetrics(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewAnalyzer(WithLint(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	var stages stageCounter
	runs := []struct {
		a   *Analyzer
		o   Observer
		buf []byte
	}{{a: metered}, {a: metered, o: &stages}, {a: plain}}
	const passes = 9
	var observer, metrics []float64 // per-pass differences
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for pass := -1; pass < passes; pass++ {
		var perImage [3]float64
		for i := range runs {
			r := &runs[i]
			runtime.GC()
			before := totalAlloc()
			for _, img := range imgs {
				_, js, _, err := r.a.Analyze(context.Background(), r.buf, img, r.o)
				if err != nil {
					t.Fatalf("Analyze: %v", err)
				}
				r.buf = js
			}
			perImage[i] = float64(totalAlloc()-before) / float64(len(imgs))
		}
		if pass >= 0 {
			observer = append(observer, perImage[1]-perImage[0])
			metrics = append(metrics, perImage[0]-perImage[2])
		}
	}
	if stages.stages.Load() == 0 {
		t.Fatal("the observer saw no stage spans")
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	obsCost, metCost := median(observer), median(metrics)
	t.Logf("per analysis: an observer adds %.0f B (budget %d), WithMetrics %.0f B (budget %d)",
		obsCost, observerAllocBudget, metCost, metricsAllocBudget)
	if obsCost > observerAllocBudget {
		t.Errorf("a per-call observer adds %.0f B per analysis, budget %d", obsCost, observerAllocBudget)
	}
	if metCost > metricsAllocBudget {
		t.Errorf("WithMetrics adds %.0f B per analysis, budget %d", metCost, metricsAllocBudget)
	}
}

// totalAlloc reads the cumulative bytes allocated to heap objects.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
