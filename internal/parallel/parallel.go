// Package parallel provides the bounded worker pool the pipeline stages
// fan out on. It is deliberately tiny: deterministic consumers index into
// pre-sized result slices (one slot per input), so ForEach returns nothing
// and no ordering machinery lives here — only bounded concurrency,
// cooperative cancellation, and panic propagation that preserves core's
// stage-recovery semantics. A pool returns only when every index it
// claimed has finished, so no work outlives the call that started it; core
// relies on that to run its stages inline.
//
// Scheduling is one shared atomic counter: each worker claims the next
// unclaimed index until the range runs out. Every fan-out in the pipeline
// is small (a handful of pinpoint candidates, a dozen MFTs, a few dozen
// lint functions per image; one corpus of images per batch), so one
// atomic add per index is nothing next to the index's work, and an idle
// worker can always take whatever is left. Which worker runs which index
// is irrelevant to callers: results land in input-indexed slots, so
// output is byte-identical at any worker count.
//
// FreeList is the one free list of reusable values in the module: the
// process's sets and its read, encode and output buffers, and within a
// set, taint's idle tracers and semantics' render buffers. It keeps two
// values per processor, what a worker holds at once, so a warm process
// stays warm whether its workers share one analysis or run one each.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a worker-count request: n <= 0 selects
// runtime.GOMAXPROCS(0), and the result is clamped to items so a small
// input never spawns idle goroutines.
func Workers(n, items int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n > items {
		n = items
	}
	if n < 1 {
		n = 1
	}
	return n
}

// CPUWorkers resolves a worker-count request for a compute-bound pool:
// like Workers' n <= 0 default, but additionally clamped to
// runtime.GOMAXPROCS(0). Goroutines beyond the processor count cannot
// speed up task bodies that never block and only add scheduling
// churn — measured as a 5–15% corpus-batch slowdown at -j 8 on a
// single-CPU host. The analysis stages resolve through this; pools whose
// tasks genuinely block (the probe stage's chaos-delayed replays) keep
// the caller's count and clamp through Workers alone.
func CPUWorkers(n int) int {
	if p := runtime.GOMAXPROCS(0); n <= 0 || n > p {
		return p
	}
	return n
}

// FreeList is a free list of reusable values: Get takes the value put
// back most recently, and Put keeps at most FreeListCap values, leaving
// any further one to the garbage collector. Unlike a sync.Pool, a
// collection never empties the list, so a warm process stays warm. The
// zero FreeList is empty and ready to use; it is safe for concurrent use
// and must not be copied after first use.
type FreeList[T any] struct {
	mu   sync.Mutex
	free []T
}

// Get takes the value put back most recently, or reports false when the
// list is empty.
func (l *FreeList[T]) Get() (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return x, false
	}
	x = l.free[n-1]
	var zero T
	l.free[n-1] = zero
	l.free = l.free[:n-1]
	return x, true
}

// Put hands x back for a later Get, unless the list is full.
func (l *FreeList[T]) Put(x T) {
	l.mu.Lock()
	if len(l.free) < FreeListCap() {
		l.free = append(l.free, x)
	}
	l.mu.Unlock()
}

// FreeListCap is the most values a FreeList keeps: two per processor,
// what a worker holds at once. The analysis pools resolve through
// CPUWorkers, and a worker holds the set it lifts into and the candidate
// pinpoint keeps until its selection, or a report buffer and an output
// buffer; so a list keeps what the process's workers hold at once,
// whether they share one analysis or run one each.
func FreeListCap() int { return 2 * runtime.GOMAXPROCS(0) }

// MaxKeptBuf caps every byte buffer the process keeps for reuse, on a free
// list or in a long-lived worker, so one outsized input does not keep its
// buffer alive for the process.
const MaxKeptBuf = 1 << 20

// KeepBuf returns b emptied for reuse, or nil when it has more than
// MaxKeptBuf bytes of storage.
func KeepBuf(b []byte) []byte {
	if cap(b) > MaxKeptBuf {
		return nil
	}
	return b[:0]
}

// PutBuf hands b back to l, emptied, unless KeepBuf would drop it or it
// has no storage.
func PutBuf(l *FreeList[[]byte], b []byte) {
	if b = KeepBuf(b); cap(b) > 0 {
		l.Put(b)
	}
}

// ForEach runs fn(i) for every i in [0, n) on at most workers goroutines
// (Workers-clamped; the calling goroutine participates as one of them).
// It returns only once every claimed index has finished, so no fn call
// outlives it.
//
// Cancellation is cooperative: once ctx is done, no further index is
// executed, so callers must treat unfilled result slots as absent (the
// sequential loops this replaces broke out of their range the same way).
// The done-check happens before every claim, so a cancelled pool winds
// down after the indices already running.
//
// A panic in fn stops the pool from claiming further work and is re-raised
// on the calling goroutine with the original panic value, so a stage body
// running under core's runStage degrades exactly as a sequential panic
// would. Only the first panic is kept.
func ForEach(ctx context.Context, workers, n int, fn func(int)) {
	if n <= 0 {
		return
	}
	w := Workers(workers, n)
	if w == 1 {
		for i := 0; i < n && (ctx == nil || ctx.Err() == nil); i++ {
			fn(i)
		}
		return
	}

	var (
		next     atomic.Int64 // the next unclaimed index
		stopped  atomic.Bool
		panicVal any
		panicMu  sync.Mutex
		wg       sync.WaitGroup
	)
	body := func() {
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if panicVal == nil {
					panicVal = r
				}
				panicMu.Unlock()
				stopped.Store(true)
			}
		}()
		for !stopped.Load() && (ctx == nil || ctx.Err() == nil) {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			fn(i)
		}
	}

	for g := 1; g < w; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body()
		}()
	}
	body() // the calling goroutine is worker 0
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}

// Fleet runs workers long-lived copies of body concurrently, as ForEach
// over the worker indices, and blocks until every one returns: the
// streaming counterpart to ForEach for workloads with no pre-sized input
// range (a service's job queue, a network accept loop). Each body receives
// its worker index and a stop context derived from ctx, and is expected to
// loop pulling work from a shared source until that source closes or the
// stop context is cancelled, which it must treat as "drain and return";
// Fleet itself imposes no work distribution.
//
// A panicking body cancels the stop context, so its siblings wind down,
// and every body still runs: the first panic value is re-raised on the
// calling goroutine once all of them have returned.
func Fleet(ctx context.Context, workers int, body func(ctx context.Context, worker int)) {
	if ctx == nil {
		ctx = context.Background()
	}
	stop, cancel := context.WithCancel(ctx)
	defer cancel()
	var first sync.Once
	var panicVal any
	n := max(workers, 1)
	ForEach(nil, n, n, func(worker int) {
		defer func() {
			if r := recover(); r != nil {
				first.Do(func() { panicVal = r })
				cancel()
			}
		}()
		body(stop, worker)
	})
	if panicVal != nil {
		panic(panicVal)
	}
}
