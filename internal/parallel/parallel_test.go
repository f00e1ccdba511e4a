package parallel

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ n, items, want int }{
		{0, 100, max},  // 0 means GOMAXPROCS
		{-3, 100, max}, // negative too
		{4, 2, 2},      // never more workers than items
		{1, 100, 1},    // explicit sequential
		{100, 0, 1},    // empty input still yields a valid count
	}
	for _, c := range cases {
		if got := Workers(c.n, c.items); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.n, c.items, got, c.want)
		}
	}
}

func TestCPUWorkersClamp(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ n, want int }{
		{0, max},       // 0 means GOMAXPROCS
		{-1, max},      // negative too
		{max, max},     // at the cap
		{max + 7, max}, // never beyond the processor count
		{1, 1},         // explicit sequential survives
	}
	for _, c := range cases {
		if got := CPUWorkers(c.n); got != c.want {
			t.Errorf("CPUWorkers(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		const n = 500
		counts := make([]atomic.Int32, n)
		ForEach(context.Background(), workers, n, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, c)
			}
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r != "boom" {
					t.Errorf("workers=%d: recovered %v, want \"boom\"", workers, r)
				}
			}()
			ForEach(context.Background(), workers, 10, func(i int) {
				if i == 3 {
					panic("boom")
				}
			})
			t.Errorf("workers=%d: ForEach returned after panic", workers)
		}()
	}
}

func TestForEachStopsOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		ForEach(ctx, workers, 10_000, func(i int) {
			if ran.Add(1) == 5 {
				cancel()
			}
		})
		// Cancellation is cooperative: already-claimed items finish, but the
		// pool must stop claiming long before draining 10k items.
		if n := ran.Load(); n >= 10_000 {
			t.Errorf("workers=%d: all %d items ran despite cancellation", workers, n)
		}
		cancel()
	}
}

func TestForEachZeroItems(t *testing.T) {
	called := false
	ForEach(context.Background(), 4, 0, func(int) { called = true })
	if called {
		t.Error("fn called with zero items")
	}
}

func TestForEachUnevenTaskCostsRebalance(t *testing.T) {
	// The first quarter of the input is expensive; with static partitioning
	// worker 0 would serialize it. Claiming must still visit every index
	// exactly once (the determinism contract) regardless of who ran what.
	const n = 64
	counts := make([]atomic.Int32, n)
	ForEach(context.Background(), 8, n, func(i int) {
		if i < n/4 {
			for j := 0; j < 50_000; j++ {
				_ = j * j
			}
		}
		counts[i].Add(1)
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForEachPanicStopsChunkMates(t *testing.T) {
	// A panic must stop every worker from claiming more: total executed
	// stays well short of n, and the first panic value is re-raised.
	const n = 100_000
	var ran atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "first" {
				t.Errorf("recovered %v, want \"first\"", r)
			}
		}()
		ForEach(context.Background(), 4, n, func(i int) {
			if ran.Add(1) == 10 {
				panic("first")
			}
		})
		t.Error("ForEach returned after panic")
	}()
	if got := ran.Load(); got >= n {
		t.Errorf("all %d items ran despite panic", got)
	}
}

func TestForEachCancelMidStealReturnsPromptly(t *testing.T) {
	// Cancel from inside an early task while more workers than processors
	// are claiming. ForEach must return without executing the tail, and no
	// index may run after it returns.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const n = 50_000
	var hits atomic.Int32
	ForEach(ctx, 16, n, func(i int) {
		if hits.Add(1) == 3 {
			cancel()
		}
	})
	ran := hits.Load()
	if ran >= n {
		t.Errorf("%d of %d indices ran after cancellation", ran, n)
	}
	time.Sleep(5 * time.Millisecond)
	if late := hits.Load(); late != ran {
		t.Errorf("%d indices ran after ForEach returned", late-ran)
	}
}

func TestForEachIdleWorkerTakesStrandedIndex(t *testing.T) {
	// Two workers, three indices: index 0 cannot finish until index 1 has
	// started, and index 1 cannot finish until index 2 has started. The
	// worker that finishes index 0 must go on to claim index 2 while the
	// other is still blocked inside index 1.
	const n = 3
	var started [n]chan struct{}
	for i := range started {
		started[i] = make(chan struct{})
	}
	ForEach(context.Background(), 2, n, func(i int) {
		close(started[i])
		if i+1 < n {
			select {
			case <-started[i+1]:
			case <-time.After(2 * time.Second):
				t.Errorf("index %d waited 2s for index %d to start", i, i+1)
			}
		}
	})
}

func TestFleetRunsEveryWorker(t *testing.T) {
	var seen [5]atomic.Int32
	Fleet(context.Background(), len(seen), func(ctx context.Context, worker int) {
		seen[worker].Add(1)
	})
	for i := range seen {
		if got := seen[i].Load(); got != 1 {
			t.Errorf("worker %d ran %d times, want 1", i, got)
		}
	}
}

func TestFleetClampsToOneWorker(t *testing.T) {
	var ran atomic.Int32
	Fleet(context.Background(), 0, func(ctx context.Context, worker int) {
		if worker != 0 {
			t.Errorf("unexpected worker id %d", worker)
		}
		ran.Add(1)
	})
	if ran.Load() != 1 {
		t.Errorf("ran %d bodies, want exactly 1", ran.Load())
	}
}

func TestFleetPanicCancelsSiblingsAndPropagates(t *testing.T) {
	var cancelled atomic.Int32
	func() {
		defer func() {
			if r := recover(); r != "fleet-boom" {
				t.Errorf("recovered %v, want \"fleet-boom\"", r)
			}
		}()
		Fleet(context.Background(), 4, func(ctx context.Context, worker int) {
			if worker == 2 {
				panic("fleet-boom")
			}
			<-ctx.Done() // siblings park until the panic winds them down
			cancelled.Add(1)
		})
		t.Error("Fleet returned after panic")
	}()
	if got := cancelled.Load(); got != 3 {
		t.Errorf("%d siblings saw cancellation, want 3", got)
	}
}

func TestFleetHonorsCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	Fleet(ctx, 3, func(ctx context.Context, worker int) {
		<-ctx.Done() // pre-cancelled caller context must flow through
	})
}

// TestFreeListKeepsTwoPerProcessor: Get takes the value put back last, an
// empty list reports false, and Put keeps two values per processor at
// most, dropping the rest.
func TestFreeListKeepsTwoPerProcessor(t *testing.T) {
	var l FreeList[int]
	if _, ok := l.Get(); ok {
		t.Fatal("Get on an empty list reported a value")
	}
	max := 2 * runtime.GOMAXPROCS(0)
	if got := FreeListCap(); got != max {
		t.Fatalf("FreeListCap() = %d, want %d, two per processor", got, max)
	}
	for i := 0; i < max+3; i++ {
		l.Put(i)
	}
	for want := max - 1; want >= 0; want-- {
		if got, ok := l.Get(); !ok || got != want {
			t.Fatalf("Get = (%d, %t), want (%d, true)", got, ok, want)
		}
	}
	if got, ok := l.Get(); ok {
		t.Errorf("Get after %d values = %d: the list kept more than two per processor", max, got)
	}
}
