// Allocation counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package facts_test

import (
	"runtime"
	"testing"

	"firmres/internal/binfmt"
	"firmres/internal/facts"
	"firmres/internal/parallel"
)

// TestRecycledSetZeroAllocs: a set that serves a program it has served
// before — lift, every artifact of every function and the call graph,
// release — allocates nothing. A set that fell back to fresh storage for
// any array of the program or its facts fails this.
func TestRecycledSetZeroAllocs(t *testing.T) {
	bin := largest(crawlBinaries(t))
	serve := func() {
		fx, err := facts.Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		buildAll(fx)
		fx.Release()
	}
	serve()
	if n := testing.AllocsPerRun(10, serve); n != 0 {
		t.Errorf("serving %s again allocates %v times, want 0", bin.Name, n)
	}
}

// liveHeap returns the bytes of live heap objects after two collections.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// setRetains serves bins in order from one set — lift, every artifact,
// release — and returns the live heap the set keeps once it is back on
// the process's free list. The list is emptied first, so the set starts
// cold; the sets taken to empty it stay live throughout.
func setRetains(t *testing.T, bins []*binfmt.Binary) int64 {
	t.Helper()
	small := bins[len(bins)-1]
	var held []*facts.Program
	for i := 0; i < parallel.FreeListCap(); i++ {
		fx, err := facts.Lift(small)
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, fx)
	}
	before := liveHeap()
	for _, bin := range bins {
		fx, err := facts.Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		buildAll(fx)
		fx.Release()
	}
	retained := liveHeap() - before
	runtime.KeepAlive(bins)
	for _, fx := range held {
		fx.Release()
	}
	return retained
}

// TestSetRetentionMatchesLargestProgram: a set kept for the life of the
// process keeps about what its largest program needed, not the sum over
// its shells and slabs of the largest part each ever held. A set that
// served all of the crawl set's binaries, alternately the largest and the
// smallest left, with every artifact built, must retain within 5% of a set
// that served only the largest.
func TestSetRetentionMatchesLargestProgram(t *testing.T) {
	bins := crawlBinaries(t)
	one := setRetains(t, []*binfmt.Binary{largest(bins)})
	all := setRetains(t, bins)
	t.Logf("a set retains %d B after the largest binary alone, %d B after all %d binaries (%+.1f%%)",
		one, all, len(bins), 100*float64(all-one)/float64(one))
	if float64(all) > 1.05*float64(one) {
		t.Errorf("a set that served all %d crawl-set binaries retains %d B, more than 5%% above the %d B of one that served the largest alone",
			len(bins), all, one)
	}
}
