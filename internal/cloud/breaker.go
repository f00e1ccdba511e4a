package cloud

// Circuit breaking for probe fleets. When a simulated (or real) cloud
// starts failing every request — chaos storms, listener exhaustion, a
// wedged broker — hundreds of concurrent probers hammering it only make
// things worse. The breaker counts consecutive transport failures across
// every prober sharing a cloud and, past a threshold, holds the fleet back
// for a cooldown.
//
// Determinism note: an open breaker *delays* probes instead of failing
// them. Whether the circuit opens (and how often) depends on how attempts
// interleave across probers, so failing fast would make the set of
// affected messages schedule-dependent; waiting keeps the final
// classification a pure function of each message's own fault schedule.
// For the same reason the open count stays out of metrics snapshots, which
// are cached with the report; Opens reads it.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"firmres/internal/errdefs"
)

// Breaker default knobs.
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 100 * time.Millisecond
)

// Breaker is a per-cloud circuit breaker shared by every prober targeting
// one cloud. The zero value applies the defaults; a nil *Breaker is a
// pass-through. Safe for concurrent use.
type Breaker struct {
	Threshold int           // consecutive failures that open the circuit (default 5)
	Cooldown  time.Duration // how long the circuit stays open (default 100ms)

	mu       sync.Mutex
	failures int
	until    time.Time // open until this instant; zero = closed
	opens    int64
}

// Do waits out any open circuit (bounded by ctx), runs op, and accounts its
// outcome. Successes and Permanent errors — a definitive answer from the
// cloud — reset the failure streak; transport failures extend it and open
// the circuit at Threshold. A ctx that expires while waiting returns an
// error wrapping errdefs.ErrBreakerOpen.
func (b *Breaker) Do(ctx context.Context, op func(context.Context) error) error {
	if b == nil {
		return op(ctx)
	}
	for {
		b.mu.Lock()
		wait := time.Until(b.until)
		b.mu.Unlock()
		if wait <= 0 {
			break
		}
		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return fmt.Errorf("cloud: %w: %w", errdefs.ErrBreakerOpen, ctx.Err())
		case <-timer.C:
		}
	}
	err := op(ctx)
	b.mu.Lock()
	defer b.mu.Unlock()
	var perm *permanentError
	if err == nil || errors.As(err, &perm) {
		b.failures = 0
		return err
	}
	b.failures++
	threshold := b.Threshold
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if b.failures >= threshold {
		cooldown := b.Cooldown
		if cooldown <= 0 {
			cooldown = DefaultBreakerCooldown
		}
		b.until = time.Now().Add(cooldown)
		b.failures = 0
		b.opens++
	}
	return err
}

// Opens reports how many times the circuit has opened. Nil-safe: zero.
func (b *Breaker) Opens() int64 {
	if b == nil {
		return 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}
