package serve

// The persistent job queue. Every accepted job is journaled to disk before
// the submitter hears "accepted", with the same crash-safety discipline as
// internal/cache: writes go to a temp file in the same directory and are
// renamed into place, so a reader (including the resume scan after a
// crash) never observes a half-written journal entry.
//
// Layout under the queue directory:
//
//	jobs/<id>.json      one journal entry per job: state, attempts, error
//	blobs/<digest>      the submitted image bytes, content-addressed
//	results/<id>.json   the serialized report of a done job
//
// Scheduling is priority-then-FIFO: higher Priority drains first,
// admission order breaks ties. Transient failures (errdefs.Transient)
// retry with exponential backoff up to MaxAttempts; deterministic input
// failures and exhausted retries park the job in the terminal failed
// state. A job that was running when the process died is reverted to
// queued by the resume scan — analysis is pure, so the replay produces
// the same report the lost run would have.
//
// Retention is bounded: once more than MaxTerminal terminal jobs are
// held, the oldest-finished ones are pruned (journal, result, and any
// blob no surviving job references), so the stores above cannot grow
// without bound under sustained traffic.

import (
	"container/heap"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"firmres/internal/atomicfile"
	"firmres/internal/errdefs"
)

// Queue defaults, chosen for an interactive service: a full queue should
// mean "the fleet is saturated", not "someone forgot a bound".
const (
	DefaultMaxQueued   = 256
	DefaultMaxAttempts = 3
	DefaultRetryBase   = 100 * time.Millisecond
	DefaultRetryMax    = 5 * time.Second
	DefaultMaxTerminal = 4096
)

// QueueConfig tunes one Queue. Zero values select the defaults above.
type QueueConfig struct {
	MaxQueued   int           // bound on jobs waiting for a worker
	MaxAttempts int           // analysis attempts per job before terminal failure
	RetryBase   time.Duration // first retry delay; doubles per attempt
	RetryMax    time.Duration // backoff cap

	// MaxTerminal bounds the terminal jobs (done + failed) the queue
	// retains. Past the cap the oldest-finished job is pruned: journal
	// entry, result file, and — once no remaining job references its
	// digest — the image blob. 0 selects DefaultMaxTerminal; negative
	// disables pruning (unbounded growth, tests only).
	MaxTerminal int

	// OnTransition, when set, observes every state change with a copy of
	// the job, after the change is journaled. Called without internal
	// locks held, so implementations may call back into the Queue.
	OnTransition func(Job)
}

func (c QueueConfig) withDefaults() QueueConfig {
	if c.MaxQueued <= 0 {
		c.MaxQueued = DefaultMaxQueued
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	if c.RetryBase <= 0 {
		c.RetryBase = DefaultRetryBase
	}
	if c.RetryMax <= 0 {
		c.RetryMax = DefaultRetryMax
	}
	if c.MaxTerminal == 0 {
		c.MaxTerminal = DefaultMaxTerminal
	}
	return c
}

// Queue is the journaled priority job queue. Safe for concurrent use.
type Queue struct {
	dir string
	cfg QueueConfig

	mu        sync.Mutex
	cond      *sync.Cond
	jobs      map[string]*Job        // every known job, terminal included
	ready     jobHeap                // queued jobs eligible to run now
	timers    map[string]*time.Timer // backoff timers for retrying jobs
	byDig     map[string]string      // digest → newest job ID
	admitting map[string]int         // digest → in-flight admissions (pins the blob)
	queued    int                    // StateQueued jobs (ready + backing off)
	running   int
	seq       uint64
	closed    bool
}

// QueueCounts is a point-in-time census of the queue's job states.
type QueueCounts struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// OpenQueue opens (creating if needed) the queue rooted at dir and replays
// its journal: queued jobs become eligible again, and jobs that were
// running when the process died revert to queued so a crash never loses
// accepted work.
func OpenQueue(dir string, cfg QueueConfig) (*Queue, error) {
	for _, sub := range []string{"jobs", "blobs", "results"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
	}
	q := &Queue{
		dir:       dir,
		cfg:       cfg.withDefaults(),
		jobs:      map[string]*Job{},
		timers:    map[string]*time.Timer{},
		byDig:     map[string]string{},
		admitting: map[string]int{},
	}
	q.cond = sync.NewCond(&q.mu)
	if err := q.resume(); err != nil {
		return nil, err
	}
	return q, nil
}

// resume replays the on-disk journal into memory.
func (q *Queue) resume() error {
	entries, err := os.ReadDir(filepath.Join(q.dir, "jobs"))
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(q.dir, "jobs", e.Name()))
		if err != nil {
			continue // raced with nothing on open; treat as absent
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil || j.ID == "" {
			// A corrupt journal entry is skipped, not fatal: the temp+rename
			// write discipline makes one unreachable short of disk rot.
			continue
		}
		if j.State == StateRunning {
			// The process died mid-run. Replay exactly once: back to queued,
			// the attempt it lost is not charged against the retry budget.
			j.State = StateQueued
			if err := q.persist(&j); err != nil {
				return err
			}
		}
		if j.State == StateDone {
			if _, err := os.Stat(q.resultPath(j.ID)); err != nil {
				// A done journal entry with no result file cannot honor a
				// result read — demote and re-run. Unreachable under the
				// result-before-journal write order; this guards journals
				// written before that order held, and disk rot.
				j.State = StateQueued
				j.CacheHit = false
				j.FinishedAt = time.Time{}
				if err := q.persist(&j); err != nil {
					return err
				}
			}
		}
		q.jobs[j.ID] = &j
		if j.Seq >= q.seq {
			q.seq = j.Seq + 1
		}
		if old, ok := q.jobs[q.byDig[j.Digest]]; !ok || j.Seq > old.Seq {
			q.byDig[j.Digest] = j.ID
		}
		if j.State == StateQueued {
			q.queued++
			heap.Push(&q.ready, &j)
		}
	}
	// The retention cap may have shrunk since the journal was written.
	q.pruneLocked()
	return nil
}

// persist journals one job atomically.
func (q *Queue) persist(j *Job) error {
	data, err := json.Marshal(j)
	if err != nil {
		return fmt.Errorf("serve: journal encode: %w", err)
	}
	return atomicWrite(filepath.Join(q.dir, "jobs", j.ID+".json"), data)
}

// atomicWrite is atomicfile.Write with the package's error prefix: no
// reader ever sees a partial file.
func atomicWrite(path string, data []byte) error {
	if err := atomicfile.Write(path, data); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// notify delivers a transition to the hook with no locks held.
func (q *Queue) notify(j Job) {
	if q.cfg.OnTransition != nil {
		q.cfg.OnTransition(j)
	}
}

// Enqueue journals a new job for the image bytes and makes it eligible to
// run. The blob is stored content-addressed (an already-present digest is
// not rewritten). An existing non-failed job for the same digest answers
// the submission instead of admitting a duplicate — deduped is true and
// the returned job is that prior job; the dedup decision and the
// admission are one critical section, so concurrent submissions of the
// same bytes admit exactly one job. Returns errdefs.ErrQueueFull when the
// waiting-job bound is hit and errdefs.ErrDraining after Close — both
// before anything is journaled or written to the blob store.
func (q *Queue) Enqueue(digest string, data []byte, tenant string, priority int) (j Job, deduped bool, err error) {
	j, deduped, err = q.admit(digest, data, tenant, priority, StateQueued, nil)
	if err != nil || deduped {
		return j, deduped, err
	}
	q.notify(j)
	return j, false, nil
}

// EnqueueDone journals a job that is already answered — the submission
// fast path for persistent-cache hits. The job never occupies a queue
// slot or a worker; it exists so status and result reads work uniformly.
// The result file lands before the journal flips to done, so a crash
// between the two re-runs the job rather than leaving a done job with no
// report. Dedup behaves as in Enqueue (result ignored when deduped).
func (q *Queue) EnqueueDone(digest string, data []byte, tenant string, priority int, result []byte) (j Job, deduped bool, err error) {
	j, deduped, err = q.admit(digest, data, tenant, priority, StateDone, result)
	if err != nil || deduped {
		return j, deduped, err
	}
	q.notify(j)
	return j, false, nil
}

// gateLocked applies the admission gauntlet that must hold both before
// and after the blob write: drain refusal, digest dedup, queue bound.
// deduped is true when an existing non-failed job for the digest answers
// the submission. Caller holds mu.
func (q *Queue) gateLocked(digest string, state JobState) (j Job, deduped bool, err error) {
	if q.closed {
		return Job{}, false, fmt.Errorf("serve: %w", errdefs.ErrDraining)
	}
	if prev, ok := q.jobs[q.byDig[digest]]; ok && prev.State != StateFailed {
		return *prev, true, nil
	}
	if state == StateQueued && q.queued >= q.cfg.MaxQueued {
		return Job{}, false, fmt.Errorf("serve: %w (%d waiting)", errdefs.ErrQueueFull, q.cfg.MaxQueued)
	}
	return Job{}, false, nil
}

func (q *Queue) admit(digest string, data []byte, tenant string, priority int, state JobState, result []byte) (Job, bool, error) {
	// Gauntlet before disk: a refused or deduplicated submission must
	// leave no blob behind.
	q.mu.Lock()
	if j, deduped, err := q.gateLocked(digest, state); deduped || err != nil {
		q.mu.Unlock()
		return j, deduped, err
	}
	q.admitting[digest]++ // pins the blob against a concurrent reject-cleanup
	q.mu.Unlock()

	// The blob lands outside the lock — it can be tens of megabytes.
	blob := filepath.Join(q.dir, "blobs", digest)
	var wrote bool
	var werr error
	if _, err := os.Stat(blob); err != nil {
		werr = atomicWrite(blob, data)
		wrote = werr == nil
	}

	q.mu.Lock()
	defer q.mu.Unlock()
	q.admitting[digest]--
	if q.admitting[digest] == 0 {
		delete(q.admitting, digest)
	}
	if werr != nil {
		return Job{}, false, werr
	}
	// Re-check: a close, a racing duplicate, or a fill may have landed
	// while the blob was writing.
	if j, deduped, err := q.gateLocked(digest, state); deduped || err != nil {
		if err != nil {
			q.dropBlobLocked(digest, wrote)
		}
		return j, deduped, err
	}
	seq := q.seq
	q.seq++
	j := &Job{
		ID:          jobID(seq, digest),
		Digest:      digest,
		Tenant:      tenant,
		Priority:    priority,
		Seq:         seq,
		State:       state,
		SubmittedAt: time.Now().UTC(),
	}
	if state == StateDone {
		j.CacheHit = true
		j.FinishedAt = j.SubmittedAt
		// Result before journal — the same order Complete uses — so no
		// crash window can produce a done job with no report.
		if err := atomicWrite(q.resultPath(j.ID), result); err != nil {
			q.dropBlobLocked(digest, wrote)
			return Job{}, false, err
		}
	}
	if err := q.persist(j); err != nil {
		os.Remove(q.resultPath(j.ID))
		q.dropBlobLocked(digest, wrote)
		return Job{}, false, err
	}
	q.jobs[j.ID] = j
	q.byDig[digest] = j.ID
	if state == StateQueued {
		q.queued++
		heap.Push(&q.ready, j)
		q.cond.Signal()
	}
	if state.Terminal() {
		q.pruneLocked()
	}
	out := *j
	return out, false, nil
}

// dropBlobLocked removes a blob this admission wrote, unless another
// in-flight admission or a recorded job still references it. Caller
// holds mu.
func (q *Queue) dropBlobLocked(digest string, wrote bool) {
	if !wrote || q.admitting[digest] > 0 {
		return
	}
	if _, ok := q.jobs[q.byDig[digest]]; ok {
		return
	}
	os.Remove(filepath.Join(q.dir, "blobs", digest))
}

// Dequeue blocks until a job is eligible, claims it (queued → running,
// attempt charged, journaled), and returns a copy. ok is false once the
// queue is closed or ctx is cancelled — the worker-fleet shutdown signal.
func (q *Queue) Dequeue(ctx context.Context) (Job, bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	// cond.Wait cannot watch a context, so cancellation pokes the cond.
	stop := context.AfterFunc(ctx, func() {
		q.mu.Lock()
		q.cond.Broadcast()
		q.mu.Unlock()
	})
	defer stop()

	q.mu.Lock()
	defer q.mu.Unlock()
	for {
		if q.closed || ctx.Err() != nil {
			return Job{}, false
		}
		if q.ready.Len() > 0 {
			j := heap.Pop(&q.ready).(*Job)
			j = q.jobs[j.ID] // heap may hold a resume-scan copy
			j.State = StateRunning
			j.Attempts++
			j.StartedAt = time.Now().UTC()
			q.queued--
			q.running++
			if err := q.persist(j); err != nil {
				// The claim could not be journaled; park the job back and
				// surface nothing — the next Dequeue retries.
				j.State = StateQueued
				j.Attempts--
				q.queued++
				q.running--
				heap.Push(&q.ready, j)
				continue
			}
			out := *j
			q.mu.Unlock()
			q.notify(out)
			q.mu.Lock()
			return out, true
		}
		q.cond.Wait()
	}
}

// Complete records a terminal success: the result is persisted first, then
// the journal flips to done, so a crash between the two re-runs the job
// rather than leaving a done job with no report.
func (q *Queue) Complete(id string, result []byte) error {
	if err := atomicWrite(q.resultPath(id), result); err != nil {
		return err
	}
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateRunning {
		q.mu.Unlock()
		return fmt.Errorf("serve: complete %s: %w", id, errdefs.ErrJobNotFound)
	}
	j.State = StateDone
	j.ErrorKind, j.Error = "", ""
	j.FinishedAt = time.Now().UTC()
	q.running--
	err := q.persist(j)
	q.pruneLocked()
	out := *j
	q.mu.Unlock()
	q.notify(out)
	return err
}

// Fail records a failed attempt. Transient causes (errdefs.Transient) with
// retry budget left go back to queued and re-run after an exponential
// backoff; everything else is terminal. Returns whether a retry was
// scheduled.
func (q *Queue) Fail(id string, cause error) (retrying bool, err error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	if !ok || j.State != StateRunning {
		q.mu.Unlock()
		return false, fmt.Errorf("serve: fail %s: %w", id, errdefs.ErrJobNotFound)
	}
	j.ErrorKind = errdefs.Kind(cause)
	j.Error = cause.Error()
	q.running--
	if errdefs.Transient(cause) && j.Attempts < q.cfg.MaxAttempts {
		// Journal the retry as queued immediately: if the process dies
		// during the backoff, the resume scan re-runs the job right away
		// instead of losing it.
		j.State = StateQueued
		q.queued++
		err = q.persist(j)
		delay := q.backoff(j.Attempts)
		q.timers[id] = time.AfterFunc(delay, func() { q.release(id) })
		out := *j
		q.mu.Unlock()
		q.notify(out)
		return true, err
	}
	j.State = StateFailed
	j.FinishedAt = time.Now().UTC()
	err = q.persist(j)
	q.pruneLocked()
	out := *j
	q.mu.Unlock()
	q.notify(out)
	return false, err
}

// backoff is the delay before retry attempt n+1: base doubling per prior
// attempt, capped.
func (q *Queue) backoff(attempts int) time.Duration {
	d := q.cfg.RetryBase
	for i := 1; i < attempts && d < q.cfg.RetryMax; i++ {
		d *= 2
	}
	if d > q.cfg.RetryMax {
		d = q.cfg.RetryMax
	}
	return d
}

// release puts a backoff-expired job back into the ready heap.
func (q *Queue) release(id string) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.timers, id)
	j, ok := q.jobs[id]
	if !ok || j.State != StateQueued || q.closed {
		return
	}
	heap.Push(&q.ready, j)
	q.cond.Signal()
}

// Close stops the queue handing out work: Dequeue returns false, Enqueue
// refuses with errdefs.ErrDraining, and pending backoff timers are
// stopped. Queued jobs stay journaled on disk — the next OpenQueue resumes
// them. Running jobs are unaffected; Complete/Fail still journal their
// outcomes.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	for id, t := range q.timers {
		t.Stop()
		delete(q.timers, id)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Get returns a copy of the job, or errdefs.ErrJobNotFound.
func (q *Queue) Get(id string) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[id]
	if !ok {
		return Job{}, fmt.Errorf("serve: %s: %w", id, errdefs.ErrJobNotFound)
	}
	return *j, nil
}

// ByDigest returns the newest job for an image digest, if any.
func (q *Queue) ByDigest(digest string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.jobs[q.byDig[digest]]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// Jobs lists every known job in admission order.
func (q *Queue) Jobs() []Job {
	q.mu.Lock()
	out := make([]Job, 0, len(q.jobs))
	for _, j := range q.jobs {
		out = append(out, *j)
	}
	q.mu.Unlock()
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Counts censuses the queue's job states.
func (q *Queue) Counts() QueueCounts {
	q.mu.Lock()
	defer q.mu.Unlock()
	c := QueueCounts{Queued: q.queued, Running: q.running}
	for _, j := range q.jobs {
		switch j.State {
		case StateDone:
			c.Done++
		case StateFailed:
			c.Failed++
		}
	}
	return c
}

// Blob reads the submitted image bytes for a digest.
func (q *Queue) Blob(digest string) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(q.dir, "blobs", digest))
	if err != nil {
		return nil, fmt.Errorf("serve: blob %s: %w", digest, err)
	}
	return data, nil
}

// Result reads the serialized report of a done job; nil with no error when
// the job has none (not terminal, or failed).
func (q *Queue) Result(id string) ([]byte, error) {
	data, err := os.ReadFile(q.resultPath(id))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("serve: result %s: %w", id, err)
	}
	return data, nil
}

func (q *Queue) resultPath(id string) string {
	return filepath.Join(q.dir, "results", id+".json")
}

// pruneLocked enforces the terminal-retention cap: while more than
// MaxTerminal terminal jobs are retained, the oldest-finished one is
// dropped — journal entry, result file, in-memory record, and, once no
// remaining job shares its digest, the image blob — so a long-running
// service does not grow memory and disk without bound. Caller holds mu.
func (q *Queue) pruneLocked() {
	if q.cfg.MaxTerminal < 0 {
		return
	}
	terminal := 0
	for _, j := range q.jobs {
		if j.State.Terminal() {
			terminal++
		}
	}
	for terminal > q.cfg.MaxTerminal {
		var oldest *Job
		for _, j := range q.jobs {
			if !j.State.Terminal() {
				continue
			}
			if oldest == nil || j.FinishedAt.Before(oldest.FinishedAt) ||
				(j.FinishedAt.Equal(oldest.FinishedAt) && j.Seq < oldest.Seq) {
				oldest = j
			}
		}
		delete(q.jobs, oldest.ID)
		if q.byDig[oldest.Digest] == oldest.ID {
			delete(q.byDig, oldest.Digest)
		}
		os.Remove(filepath.Join(q.dir, "jobs", oldest.ID+".json"))
		os.Remove(q.resultPath(oldest.ID))
		if !q.blobReferencedLocked(oldest.Digest) {
			os.Remove(filepath.Join(q.dir, "blobs", oldest.Digest))
		}
		terminal--
	}
}

// blobReferencedLocked reports whether any recorded job or in-flight
// admission still needs the blob for a digest. Caller holds mu.
func (q *Queue) blobReferencedLocked(digest string) bool {
	if q.admitting[digest] > 0 {
		return true
	}
	for _, j := range q.jobs {
		if j.Digest == digest {
			return true
		}
	}
	return false
}

// jobHeap orders queued jobs by priority (higher first), then admission
// order. container/heap interface.
type jobHeap []*Job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, j int) bool {
	if h[i].Priority != h[j].Priority {
		return h[i].Priority > h[j].Priority
	}
	return h[i].Seq < h[j].Seq
}
func (h jobHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *jobHeap) Push(x any)   { *h = append(*h, x.(*Job)) }
func (h *jobHeap) Pop() (out any) {
	old := *h
	n := len(old)
	out, old[n-1] = old[n-1], nil
	*h = old[:n-1]
	return out
}
