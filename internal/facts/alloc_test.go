// Allocation counts are only meaningful without race instrumentation,
// which perturbs escape analysis and allocation behavior.
//go:build !race

package facts_test

import (
	"testing"

	"firmres/internal/facts"
)

// TestRecycledSetZeroAllocs: a set that serves a program it has served
// before — lift, every artifact of every function and the call graph,
// release — allocates nothing. A set that fell back to fresh storage for
// any array of the program or its facts fails this.
func TestRecycledSetZeroAllocs(t *testing.T) {
	bin := largest(crawlBinaries(t))
	pool := facts.NewPool(1)
	serve := func() {
		fx, err := pool.Lift(bin)
		if err != nil {
			t.Fatal(err)
		}
		buildAll(fx)
		pool.Release(fx)
	}
	serve()
	if n := testing.AllocsPerRun(10, serve); n != 0 {
		t.Errorf("serving %s again allocates %v times, want 0", bin.Name, n)
	}
}
