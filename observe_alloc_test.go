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
// per-call Observer, and bounds what the observer adds per analysis. It
// also logs what WithMetrics itself costs, from a second Analyzer without
// it. After a warm-up pass the three runs take turns over nine passes,
// and each figure is the median pass. Each pass of a run starts from a
// collection and runs with the collector off, so no collection falls
// midway through a pass. The counts come from runtime.ReadMemStats, which
// flushes every P's allocation cache and so counts each small object as
// it is allocated.
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
		a *Analyzer
		o Observer
	}{{metered, nil}, {metered, &stages}, {plain, nil}}
	const passes = 9
	var perPass [3][]float64
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for pass := -1; pass < passes; pass++ {
		for i, r := range runs {
			runtime.GC()
			before := totalAlloc()
			for _, img := range imgs {
				if _, _, _, err := r.a.Analyze(context.Background(), img, r.o); err != nil {
					t.Fatalf("Analyze: %v", err)
				}
			}
			if pass >= 0 {
				perPass[i] = append(perPass[i], float64(totalAlloc()-before)/float64(len(imgs)))
			}
		}
	}
	if stages.stages.Load() == 0 {
		t.Fatal("the observer saw no stage spans")
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		return xs[len(xs)/2]
	}
	unobserved, observed, unmetered := median(perPass[0]), median(perPass[1]), median(perPass[2])
	t.Logf("per analysis: %.0f B with an observer, %.0f B without (budget +%d); WithMetrics costs %.0f B (%.0f B without it)",
		observed, unobserved, observerAllocBudget, unobserved-unmetered, unmetered)
	if observed-unobserved > observerAllocBudget {
		t.Errorf("a per-call observer adds %.0f B per analysis, budget %d", observed-unobserved, observerAllocBudget)
	}
}

// totalAlloc reads the cumulative bytes allocated to heap objects.
func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
