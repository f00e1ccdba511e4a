package cloud

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"testing"
	"time"

	"firmres/internal/errdefs"
	"firmres/internal/fields"
)

func fastBackoff(attempts int) Backoff {
	return Backoff{
		Attempts: attempts,
		Base:     time.Millisecond,
		Max:      2 * time.Millisecond,
		Budget:   time.Second,
		Rand:     rand.New(rand.NewSource(1)),
	}
}

func TestBackoffSucceedsFirstTry(t *testing.T) {
	b := fastBackoff(3)
	calls := 0
	if err := b.Do(context.Background(), func(context.Context) error { calls++; return nil }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
}

func TestBackoffRetriesTransientFailures(t *testing.T) {
	b := fastBackoff(5)
	calls := 0
	err := b.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return fmt.Errorf("transient %d", calls)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
}

func TestBackoffExhaustionIsTyped(t *testing.T) {
	b := fastBackoff(3)
	calls := 0
	boom := errors.New("boom")
	err := b.Do(context.Background(), func(context.Context) error { calls++; return boom })
	if calls != 3 {
		t.Errorf("calls = %d, want 3", calls)
	}
	if !errors.Is(err, errdefs.ErrProbeExhausted) {
		t.Errorf("err = %v, want ErrProbeExhausted", err)
	}
	if !errors.Is(err, boom) {
		t.Errorf("err = %v, lost the last cause", err)
	}
}

func TestBackoffPermanentStopsImmediately(t *testing.T) {
	b := fastBackoff(5)
	calls := 0
	denied := errors.New("access denied")
	err := b.Do(context.Background(), func(context.Context) error {
		calls++
		return Permanent(denied)
	})
	if calls != 1 {
		t.Errorf("calls = %d, want 1", calls)
	}
	if !errors.Is(err, denied) || errors.Is(err, errdefs.ErrProbeExhausted) {
		t.Errorf("err = %v, want bare permanent cause", err)
	}
}

func TestBackoffHonorsContext(t *testing.T) {
	b := Backoff{Attempts: 100, Base: 50 * time.Millisecond, Budget: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := b.Do(ctx, func(context.Context) error { return errors.New("x") })
	if !errors.Is(err, errdefs.ErrProbeExhausted) || !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want ErrProbeExhausted wrapping context.Canceled", err)
	}
}

func TestBackoffBudgetCapsTotalTime(t *testing.T) {
	b := Backoff{
		Attempts: 1000,
		Base:     time.Millisecond,
		Max:      time.Millisecond,
		Budget:   40 * time.Millisecond,
		Rand:     rand.New(rand.NewSource(1)),
	}
	start := time.Now()
	err := b.Do(context.Background(), func(ctx context.Context) error {
		select {
		case <-time.After(5 * time.Millisecond):
		case <-ctx.Done():
		}
		return errors.New("slow failure")
	})
	if elapsed := time.Since(start); elapsed > 500*time.Millisecond {
		t.Errorf("budgeted Do ran %v", elapsed)
	}
	if !errors.Is(err, errdefs.ErrProbeExhausted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrProbeExhausted wrapping deadline", err)
	}
}

func TestProbeRetriesUnreachableCloud(t *testing.T) {
	p := &Prober{
		HTTPAddr:       "127.0.0.1:1", // reserved port: connection refused
		Client:         new(http.Client),
		AttemptTimeout: 200 * time.Millisecond,
		Retry:          fastBackoff(2),
	}
	msg := &fields.Message{Format: fields.FormatHTTP, Path: "/ping"}
	_, err := p.ProbeContext(context.Background(), msg)
	if !errors.Is(err, errdefs.ErrProbeExhausted) {
		t.Errorf("err = %v, want ErrProbeExhausted", err)
	}
}
