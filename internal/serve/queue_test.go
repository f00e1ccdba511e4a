package serve

// Queue contract tests: priority scheduling, journal crash-resume with
// exactly-once replay, transient-retry exhaustion, the bounded-queue
// refusal, and a concurrent submit/drain storm meant to run under -race.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"firmres/internal/errdefs"
)

func digestOf(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// enqueueN admits n distinct jobs with the given priorities and returns
// their IDs in admission order.
func enqueueN(t *testing.T, q *Queue, priorities ...int) []string {
	t.Helper()
	ids := make([]string, 0, len(priorities))
	for i, p := range priorities {
		data := []byte(fmt.Sprintf("image-%d", i))
		j, deduped, err := q.Enqueue(digestOf(data), data, "t", p)
		if err != nil || deduped {
			t.Fatalf("enqueue %d: deduped=%v err=%v", i, deduped, err)
		}
		ids = append(ids, j.ID)
	}
	return ids
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := enqueueN(t, q, 0, 5, 5, 1, 0)
	want := []string{ids[1], ids[2], ids[3], ids[0], ids[4]}
	for i, w := range want {
		j, ok := q.Dequeue(context.Background())
		if !ok {
			t.Fatalf("dequeue %d: closed", i)
		}
		if j.ID != w {
			t.Errorf("dequeue %d = %s, want %s", i, j.ID, w)
		}
		if j.State != StateRunning || j.Attempts != 1 {
			t.Errorf("dequeue %d: state %s attempts %d", i, j.State, j.Attempts)
		}
	}
}

func TestQueueCrashResumeReplaysExactlyOnce(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := enqueueN(t, q, 0, 0, 0)

	// Claim one job (journaled as running) and "crash": no Complete/Fail,
	// just a fresh handle on the same directory.
	victim, ok := q.Dequeue(context.Background())
	if !ok {
		t.Fatal("dequeue: closed")
	}
	q.Close()

	q2, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := q2.Get(victim.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateQueued {
		t.Fatalf("resumed victim state = %s, want queued", got.State)
	}

	// Every job — the interrupted one included — dequeues exactly once.
	seen := map[string]int{}
	for range ids {
		j, ok := q2.Dequeue(context.Background())
		if !ok {
			t.Fatal("dequeue: closed early")
		}
		seen[j.ID]++
	}
	for _, id := range ids {
		if seen[id] != 1 {
			t.Errorf("job %s dequeued %d times, want exactly 1", id, seen[id])
		}
	}
	c := q2.Counts()
	if c.Queued != 0 || c.Running != 3 {
		t.Errorf("counts = %+v, want 0 queued / 3 running", c)
	}
}

func TestQueueTransientRetryThenExhaustion(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{
		MaxAttempts: 3,
		RetryBase:   time.Millisecond,
		RetryMax:    2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	id := enqueueN(t, q, 0)[0]
	transient := fmt.Errorf("stage blew budget: %w", errdefs.ErrStageTimeout)

	for attempt := 1; attempt <= 3; attempt++ {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		j, ok := q.Dequeue(ctx)
		cancel()
		if !ok {
			t.Fatalf("attempt %d: dequeue closed", attempt)
		}
		if j.Attempts != attempt {
			t.Fatalf("attempt %d: counted %d", attempt, j.Attempts)
		}
		retrying, err := q.Fail(id, transient)
		if err != nil {
			t.Fatal(err)
		}
		if wantRetry := attempt < 3; retrying != wantRetry {
			t.Fatalf("attempt %d: retrying = %v, want %v", attempt, retrying, wantRetry)
		}
	}
	j, err := q.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateFailed || j.ErrorKind != "stage-timeout" {
		t.Errorf("exhausted job = %s/%s, want failed/stage-timeout", j.State, j.ErrorKind)
	}
}

func TestQueueDeterministicFailureIsTerminal(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	id := enqueueN(t, q, 0)[0]
	if _, ok := q.Dequeue(context.Background()); !ok {
		t.Fatal("dequeue: closed")
	}
	retrying, err := q.Fail(id, fmt.Errorf("bad input: %w", errdefs.ErrCorruptImage))
	if err != nil {
		t.Fatal(err)
	}
	if retrying {
		t.Error("corrupt-image failure retried; deterministic failures must be terminal")
	}
	j, _ := q.Get(id)
	if j.State != StateFailed || j.Attempts != 1 {
		t.Errorf("job = %s after %d attempts, want failed after 1", j.State, j.Attempts)
	}
}

func TestQueueFullRefusesBeforeJournaling(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{MaxQueued: 2})
	if err != nil {
		t.Fatal(err)
	}
	enqueueN(t, q, 0, 0)
	data := []byte("one-too-many")
	_, _, err = q.Enqueue(digestOf(data), data, "t", 0)
	if !errors.Is(err, errdefs.ErrQueueFull) {
		t.Fatalf("third enqueue err = %v, want ErrQueueFull", err)
	}
	if _, ok := q.ByDigest(digestOf(data)); ok {
		t.Error("refused job was journaled")
	}
	// A refused submission must leave no disk residue either.
	if _, err := os.Stat(filepath.Join(dir, "blobs", digestOf(data))); !os.IsNotExist(err) {
		t.Errorf("refused submission persisted its blob (stat err = %v)", err)
	}
}

func TestQueueCompleteAndResultRoundTrip(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	id := enqueueN(t, q, 0)[0]
	if _, ok := q.Dequeue(context.Background()); !ok {
		t.Fatal("dequeue: closed")
	}
	if err := q.Complete(id, []byte(`{"ok":true}`), false); err != nil {
		t.Fatal(err)
	}
	j, _ := q.Get(id)
	if j.State != StateDone {
		t.Fatalf("state = %s, want done", j.State)
	}
	res, err := q.AppendResult(nil, id)
	if err != nil || string(res) != `{"ok":true}` {
		t.Errorf("result = %q, %v", res, err)
	}
	// Terminal-state sanity: double completion is an error, not a rewrite.
	if err := q.Complete(id, []byte("x"), false); !errors.Is(err, errdefs.ErrJobNotFound) {
		t.Errorf("double complete err = %v, want ErrJobNotFound", err)
	}
}

// TestQueueCompleteCacheHitOneTransition: a worker answered by the cache
// completes with the flag in the one journal write and the one terminal
// transition, and a resumed queue still shows it.
func TestQueueCompleteCacheHitOneTransition(t *testing.T) {
	dir := t.TempDir()
	var mu sync.Mutex
	var terminal []Job
	q, err := OpenQueue(dir, QueueConfig{OnTransition: func(j Job) {
		if j.State.Terminal() {
			mu.Lock()
			terminal = append(terminal, j)
			mu.Unlock()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	id := enqueueN(t, q, 0)[0]
	if _, ok := q.Dequeue(context.Background()); !ok {
		t.Fatal("dequeue: closed")
	}
	if err := q.Complete(id, []byte(`{"ok":true}`), true); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	if len(terminal) != 1 || !terminal[0].CacheHit {
		t.Errorf("terminal transitions = %+v, want one carrying cache_hit", terminal)
	}
	mu.Unlock()
	q.Close()

	resumed, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if j, err := resumed.Get(id); err != nil || j.State != StateDone || !j.CacheHit {
		t.Errorf("resumed job = %+v, %v; want done with cache_hit", j, err)
	}
}

func TestQueueCloseKeepsQueuedJournaled(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	ids := enqueueN(t, q, 0, 0)
	q.Close()
	if _, ok := q.Dequeue(context.Background()); ok {
		t.Error("dequeue after close handed out work")
	}
	if _, _, err := q.Enqueue("d", []byte("x"), "t", 0); !errors.Is(err, errdefs.ErrDraining) {
		t.Errorf("enqueue after close err = %v, want ErrDraining", err)
	}
	q2, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if c := q2.Counts(); c.Queued != len(ids) {
		t.Errorf("reopened queue has %d queued, want %d", c.Queued, len(ids))
	}
}

// TestQueueConcurrentSubmitDrain storms the queue from both sides under
// -race: submitters racing workers racing a mid-storm Close. Invariants:
// no job is lost, none runs twice, and the handle survives the shutdown.
func TestQueueConcurrentSubmitDrain(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{MaxQueued: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	const submitters, jobsEach, workers = 8, 40, 4
	var (
		mu        sync.Mutex
		processed = map[string]int{}
		submitted = map[string]bool{}
		wg        sync.WaitGroup
	)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j, ok := q.Dequeue(ctx)
				if !ok {
					return
				}
				mu.Lock()
				processed[j.ID]++
				mu.Unlock()
				if err := q.Complete(j.ID, []byte("{}"), false); err != nil {
					t.Errorf("complete: %v", err)
				}
			}
		}()
	}
	for s := 0; s < submitters; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for i := 0; i < jobsEach; i++ {
				data := []byte(fmt.Sprintf("s%d-i%d", s, i))
				j, deduped, err := q.Enqueue(digestOf(data), data, "t", i%3)
				if errors.Is(err, errdefs.ErrDraining) {
					return // close raced the submit: acceptable refusal
				}
				if err != nil || deduped {
					t.Errorf("enqueue: deduped=%v err=%v", deduped, err)
					return
				}
				mu.Lock()
				submitted[j.ID] = true
				mu.Unlock()
			}
		}(s)
	}

	// Let the storm develop, then drain: close intake and stop workers.
	time.Sleep(20 * time.Millisecond)
	q.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	for id, n := range processed {
		if n != 1 {
			t.Errorf("job %s processed %d times", id, n)
		}
		if !submitted[id] {
			t.Errorf("processed unknown job %s", id)
		}
	}
	c := q.Counts()
	if got := c.Queued + c.Done; got != len(submitted) {
		t.Errorf("accounted %d jobs (queued %d + done %d), submitted %d — jobs lost",
			got, c.Queued, c.Done, len(submitted))
	}
}

func TestQueueDedupIsAtomicUnderConcurrentSubmit(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{MaxQueued: 64})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("identical-bytes")
	dig := digestOf(data)
	const n = 16
	var (
		wg      sync.WaitGroup
		ids     [n]string
		deduped [n]bool
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j, dup, err := q.Enqueue(dig, data, "t", 0)
			if err != nil {
				t.Errorf("enqueue %d: %v", i, err)
				return
			}
			ids[i], deduped[i] = j.ID, dup
		}(i)
	}
	wg.Wait()
	admitted := 0
	for i := 0; i < n; i++ {
		if !deduped[i] {
			admitted++
		}
		if ids[i] != ids[0] {
			t.Errorf("submission %d got job %s, submission 0 got %s — duplicate jobs for one digest", i, ids[i], ids[0])
		}
	}
	if admitted != 1 {
		t.Errorf("%d submissions admitted a job, want exactly 1", admitted)
	}
	if c := q.Counts(); c.Queued != 1 {
		t.Errorf("queued = %d, want 1", c.Queued)
	}
}

func TestQueueDedupAnswersExistingJobAcrossStates(t *testing.T) {
	q, err := OpenQueue(t.TempDir(), QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("dedup-me")
	dig := digestOf(data)
	first, dup, err := q.Enqueue(dig, data, "t", 0)
	if err != nil || dup {
		t.Fatalf("first enqueue: deduped=%v err=%v", dup, err)
	}
	again, dup, err := q.Enqueue(dig, data, "other-tenant", 5)
	if err != nil || !dup || again.ID != first.ID {
		t.Fatalf("resubmit = %s deduped=%v err=%v, want dedup to %s", again.ID, dup, err, first.ID)
	}
	// A terminally failed job stops answering: the resubmit is a retry.
	if _, ok := q.Dequeue(context.Background()); !ok {
		t.Fatal("dequeue: closed")
	}
	if retrying, err := q.Fail(first.ID, fmt.Errorf("bad: %w", errdefs.ErrCorruptImage)); retrying || err != nil {
		t.Fatalf("fail: retrying=%v err=%v", retrying, err)
	}
	fresh, dup, err := q.Enqueue(dig, data, "t", 0)
	if err != nil || dup || fresh.ID == first.ID {
		t.Fatalf("post-failure resubmit = %s deduped=%v err=%v, want a new job", fresh.ID, dup, err)
	}
}

func TestQueueResumeDemotesDoneJobMissingResult(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	id := enqueueN(t, q, 0)[0]
	if _, ok := q.Dequeue(context.Background()); !ok {
		t.Fatal("dequeue: closed")
	}
	if err := q.Complete(id, []byte(`{"ok":true}`), false); err != nil {
		t.Fatal(err)
	}
	q.Close()

	// Simulate the result file vanishing (disk rot, or a journal written
	// before the result-first ordering): done must not survive resume.
	if err := os.Remove(filepath.Join(dir, "results", id+".json")); err != nil {
		t.Fatal(err)
	}
	q2, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	j, err := q2.Get(id)
	if err != nil {
		t.Fatal(err)
	}
	if j.State != StateQueued || j.CacheHit {
		t.Fatalf("resumed job = %s cache_hit=%v, want queued and re-runnable", j.State, j.CacheHit)
	}
	got, ok := q2.Dequeue(context.Background())
	if !ok || got.ID != id {
		t.Fatalf("demoted job did not dequeue: ok=%v id=%s", ok, got.ID)
	}
}

func TestQueueEnqueueDoneWritesResultBeforeJournal(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{})
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("prehit-bytes")
	j, dup, err := q.EnqueueDone(digestOf(data), data, "t", 0, []byte(`{"warm":true}`))
	if err != nil || dup {
		t.Fatalf("enqueue done: deduped=%v err=%v", dup, err)
	}
	if j.State != StateDone || !j.CacheHit {
		t.Fatalf("job = %s cache_hit=%v, want done/true", j.State, j.CacheHit)
	}
	res, err := q.AppendResult(nil, j.ID)
	if err != nil || string(res) != `{"warm":true}` {
		t.Fatalf("result = %q, %v", res, err)
	}
	// The durability pair must hold on disk together: a journal entry in
	// state done implies a readable result file.
	if _, err := os.Stat(filepath.Join(dir, "results", j.ID+".json")); err != nil {
		t.Errorf("done job missing its result file: %v", err)
	}
}

func TestQueueTerminalRetentionPrunes(t *testing.T) {
	dir := t.TempDir()
	q, err := OpenQueue(dir, QueueConfig{MaxTerminal: 2})
	if err != nil {
		t.Fatal(err)
	}
	ids := enqueueN(t, q, 0, 0, 0, 0)
	for range ids {
		j, ok := q.Dequeue(context.Background())
		if !ok {
			t.Fatal("dequeue: closed")
		}
		if err := q.Complete(j.ID, []byte("{}"), false); err != nil {
			t.Fatal(err)
		}
	}
	if jobs := q.Jobs(); len(jobs) != 2 {
		t.Fatalf("retained %d jobs, want 2", len(jobs))
	}
	for i, id := range ids[:2] {
		if _, err := q.Get(id); !errors.Is(err, errdefs.ErrJobNotFound) {
			t.Errorf("pruned job %s still readable (err = %v)", id, err)
		}
		data := []byte(fmt.Sprintf("image-%d", i))
		for _, path := range []string{
			filepath.Join(dir, "jobs", id+".json"),
			filepath.Join(dir, "results", id+".json"),
			filepath.Join(dir, "blobs", digestOf(data)),
		} {
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Errorf("pruned job %s left %s behind (stat err = %v)", id, path, err)
			}
		}
	}
	for _, id := range ids[2:] {
		j, err := q.Get(id)
		if err != nil || j.State != StateDone {
			t.Errorf("retained job %s: state=%s err=%v", id, j.State, err)
		}
		if res, err := q.AppendResult(nil, id); err != nil || len(res) == 0 {
			t.Errorf("retained job %s has no result: %v", id, err)
		}
	}
	// The cap survives a restart: the reopened queue holds the same two.
	q.Close()
	q2, err := OpenQueue(dir, QueueConfig{MaxTerminal: 2})
	if err != nil {
		t.Fatal(err)
	}
	if c := q2.Counts(); c.Done != 2 {
		t.Errorf("reopened queue retains %d done jobs, want 2", c.Done)
	}
}
