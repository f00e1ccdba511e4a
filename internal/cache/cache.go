// Package cache is the persistent, content-addressed analysis-result cache:
// the scaling lever that turns corpus re-scans from full recomputation into
// disk reads. It is dependency-free and deliberately dumb — a directory of
// checksummed files — so any machine, container, or CI runner can share one
// by pointing at the same path.
//
// Keys are derived by KeyOf from (SHA-256 of the raw image bytes, canonical
// options fingerprint); the fingerprint embeds the pipeline version stamp,
// so bumping core.PipelineVersion invalidates every entry at once without
// touching the directory. Values are opaque bytes (the serialized report).
//
// Guarantees:
//
//   - Crash safety: entries are written to a temp file and renamed into
//     place, so readers never observe a half-written value.
//   - Corruption tolerance: every entry carries a SHA-256 of its payload; a
//     mismatch (truncation, bit rot, hostile edit) reads as a miss, the bad
//     entry is deleted, and the error — wrapping errdefs.ErrCacheCorrupt —
//     is surfaced as a note, never a failure.
//   - Single-flight: concurrent Do calls for one key compute the value
//     exactly once per process; the other callers block and share it.
//   - Stored on request: a computed value is written only when the compute
//     asks for it, so a caller keeps results that depend on more than the
//     key (a deadline, the host's load) out of the cache. Compute errors
//     are never written.
//   - Bounded size: with a MaxBytes budget, Put evicts least-recently-used
//     entries (mtime order; Get refreshes mtime) until the total fits.
package cache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmres/internal/atomicfile"
	"firmres/internal/errdefs"
)

// entryExt suffixes every cache entry file; everything else in the
// directory is left alone (sizing, eviction, Clear).
const entryExt = ".fcache"

// header is the first line of every entry: format magic + payload checksum.
const headerMagic = "firmcache1"

// KeyOf derives the content address for one (image, configuration) pair:
// SHA-256 over the image digest and the canonical options fingerprint
// (which embeds the pipeline version stamp). Hex-encoded, safe as a file
// name.
func KeyOf(image []byte, fingerprint string) string {
	imgSum := sha256.Sum256(image)
	h := sha256.New()
	h.Write(imgSum[:])
	h.Write([]byte{0})
	h.Write([]byte(fingerprint))
	return hex.EncodeToString(h.Sum(nil))
}

// Stats is a point-in-time snapshot of one Cache's counters.
type Stats struct {
	Hits      int64 // values served from disk or a shared in-flight compute
	Misses    int64 // values that had to be computed
	Evictions int64 // entries removed by the MaxBytes budget
	Errors    int64 // corrupt entries discarded (each also counted a miss)
}

// Option configures a Cache.
type Option func(*Cache)

// WithMaxBytes caps the directory's total entry size; n <= 0 (the default)
// means unbounded. Put evicts least-recently-used entries to fit.
func WithMaxBytes(n int64) Option {
	return func(c *Cache) { c.maxBytes = n }
}

// Cache is one handle onto an on-disk cache directory. Safe for concurrent
// use; multiple handles (or processes) may share a directory — the atomic
// rename write and checksummed read keep them consistent, though
// single-flight deduplication is per-handle.
type Cache struct {
	dir      string
	maxBytes int64

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64

	mu       sync.Mutex
	inflight map[string]*call
}

// call is one in-flight compute other goroutines can wait on.
type call struct {
	done chan struct{}
	val  []byte
	err  error
}

// Open returns a handle on the cache directory, creating it if needed.
func Open(dir string, opts ...Option) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	c := &Cache{dir: dir, inflight: map[string]*call{}}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Stats snapshots the handle's counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Errors:    c.errors.Load(),
	}
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+entryExt)
}

// Get reads the entry for key. A clean miss returns (nil, nil); a corrupt
// entry is deleted and returns (nil, err) with err wrapping
// errdefs.ErrCacheCorrupt — still a miss, never a failure. A hit refreshes
// the entry's mtime so eviction approximates LRU. Get does not count
// hits/misses itself: Do owns the accounting (a raw Get is a probe).
func (c *Cache) Get(key string) ([]byte, error) {
	path := c.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		c.errors.Add(1)
		return nil, fmt.Errorf("cache: %w: %s: %w", errdefs.ErrCacheCorrupt, key, err)
	}
	payload, err := decodeEntry(data)
	if err != nil {
		c.errors.Add(1)
		os.Remove(path)
		return nil, fmt.Errorf("cache: %w: %s: %w", errdefs.ErrCacheCorrupt, key, err)
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort LRU recency
	return payload, nil
}

// Put writes the entry for key atomically (atomicfile.Write) and then
// enforces the MaxBytes budget by evicting least-recently-used entries.
func (c *Cache) Put(key string, val []byte) error {
	if err := atomicfile.Write(c.path(key), encodeEntry(val)); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	c.evict()
	return nil
}

// Do returns the cached value for key, computing it on a miss and storing
// it when compute says to. Concurrent Do calls for the same key share one
// compute: the first caller runs it, the rest block and receive the same
// bytes (counted as hits — no work was duplicated), stored or not. compute
// errors are returned to every waiter and nothing is stored, so failures
// are never cached; neither is a value compute declines to store. A
// corrupt on-disk entry degrades to a miss; its error is dropped here (the
// Errors counter and the deleted entry remain) because the recomputed
// value supersedes it.
func (c *Cache) Do(key string, compute func() (val []byte, store bool, err error)) (val []byte, hit bool, err error) {
	c.mu.Lock()
	if cl, ok := c.inflight[key]; ok {
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return nil, false, cl.err
		}
		c.hits.Add(1)
		return cl.val, true, nil
	}
	cl := &call{done: make(chan struct{})}
	c.inflight[key] = cl
	c.mu.Unlock()

	finish := func(val []byte, err error) {
		cl.val, cl.err = val, err
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
	}

	if data, _ := c.Get(key); data != nil {
		c.hits.Add(1)
		finish(data, nil)
		return data, true, nil
	}
	c.misses.Add(1)
	data, store, err := compute()
	if err != nil {
		finish(nil, err)
		return nil, false, err
	}
	// A Put failure (disk full, read-only dir) must not fail the analysis:
	// the computed value is still good, it just isn't persisted.
	if store {
		if perr := c.Put(key, data); perr != nil {
			c.errors.Add(1)
		}
	}
	finish(data, nil)
	return data, false, nil
}

// Clear removes every cache entry in the directory (other files are left
// alone) and returns the first error encountered.
func (c *Cache) Clear() error {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	var first error
	for _, e := range entries {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		if err := os.Remove(filepath.Join(c.dir, e.Name())); err != nil && first == nil {
			first = fmt.Errorf("cache: %w", err)
		}
	}
	return first
}

// SizeBytes sums the sizes of every entry in the directory.
func (c *Cache) SizeBytes() (int64, error) {
	entries, err := c.list()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	return total, nil
}

type entryInfo struct {
	path  string
	size  int64
	mtime int64 // unix nanos
}

func (c *Cache) list() ([]entryInfo, error) {
	dirents, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	var out []entryInfo
	for _, e := range dirents {
		if !e.Type().IsRegular() || !strings.HasSuffix(e.Name(), entryExt) {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		out = append(out, entryInfo{
			path:  filepath.Join(c.dir, e.Name()),
			size:  fi.Size(),
			mtime: fi.ModTime().UnixNano(),
		})
	}
	return out, nil
}

// evict enforces the MaxBytes budget: oldest-mtime entries go first until
// the directory fits. Ties break on path for determinism. Best-effort —
// eviction failures never surface to the analysis.
func (c *Cache) evict() {
	if c.maxBytes <= 0 {
		return
	}
	entries, err := c.list()
	if err != nil {
		return
	}
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if total <= c.maxBytes {
		return
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].mtime != entries[j].mtime {
			return entries[i].mtime < entries[j].mtime
		}
		return entries[i].path < entries[j].path
	})
	for _, e := range entries {
		if total <= c.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			c.evictions.Add(1)
		}
	}
}

// encodeEntry frames a payload with its checksum header:
//
//	firmcache1 <hex sha256(payload)>\n<payload>
func encodeEntry(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("%s %s\n", headerMagic, hex.EncodeToString(sum[:]))
	out := make([]byte, 0, len(header)+len(payload))
	out = append(out, header...)
	out = append(out, payload...)
	return out
}

// decodeEntry verifies the frame and returns the payload.
func decodeEntry(data []byte) ([]byte, error) {
	nl := -1
	for i, b := range data {
		if b == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		return nil, fmt.Errorf("missing header")
	}
	var magic, sumHex string
	if _, err := fmt.Sscanf(string(data[:nl]), "%s %s", &magic, &sumHex); err != nil || magic != headerMagic {
		return nil, fmt.Errorf("bad header")
	}
	payload := data[nl+1:]
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}
