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
//     place, so readers never observe a half-written value. The header and
//     the payload go into that file as they are, without first being
//     copied into one framed buffer.
//   - One read per lookup: Do, the read an analysis makes, reads an entry
//     whole into a buffer from the process's free list, checks its header
//     and SHA-256 without allocating, and lends the payload to the
//     caller's use, which decides whether it is an entry and must not keep
//     it; a hit passes through no single-flight. Get, a probe, reads into a
//     buffer the caller owns and checks only the frame. A hit through
//     either refreshes its mtime.
//   - Only the owner discards: an entry a read cannot use (truncation, bit
//     rot, a hostile edit, a payload use rejects) is a miss. Only the
//     key's single-flight owner in Do, reading it again, deletes it and
//     counts it in Errors, so no caller deletes an entry another caller on
//     its handle has healed; another handle or process still deletes by
//     path.
//   - Single-flight over computes: concurrent Do calls on one handle that
//     miss compute the value once; the other callers block and hand a copy
//     of the computed bytes to their use, so the computing caller may reuse
//     its storage as soon as its Do returns. Handles that share a directory
//     share entries, not computes.
//   - Stored on request: a computed value is written only when the compute
//     asks for it, so a caller keeps results that depend on more than the
//     key (a deadline, the host's load) out of the cache. Compute errors
//     are never written.
//   - Bounded size: with a MaxBytes budget, Put evicts least-recently-used
//     entries until the total fits. The process keeps one index of each
//     capped directory (see index), so eviction lists the directory only
//     once per MaxBytes put; every put and every hit stamps its entry's
//     mtime with time.Now, which orders a listing, and refreshes its place
//     in the index.
package cache

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"firmres/internal/atomicfile"
	"firmres/internal/errdefs"
	"firmres/internal/parallel"
)

// entryExt suffixes every cache entry file; everything else in the
// directory is left alone (sizing, eviction, Clear).
const entryExt = ".fcache"

const (
	// headerMagic opens the first line of every entry.
	headerMagic = "firmcache1"
	// headerLen is the length of that line: the magic, a space, the
	// payload's SHA-256 in 64 lower-case hex digits, and a newline.
	headerLen = len(headerMagic) + 1 + 2*sha256.Size + 1
)

var (
	errBadHeader = errors.New("bad header")
	errChecksum  = errors.New("checksum mismatch")
	// errComputePanicked is what the waiters of a compute that never
	// returned receive.
	errComputePanicked = fmt.Errorf("cache: %w in a shared compute", errdefs.ErrStagePanic)
)

// readBufs is the process's free list of the buffers Do lends entries
// from: at most one per analysis worker, each at most
// parallel.MaxKeptBuf, kept across collections.
var readBufs parallel.FreeList[[]byte]

// KeyOf derives the content address for one (image, configuration) pair:
// SHA-256 over the image digest, a zero byte and the canonical options
// fingerprint (which embeds the pipeline version stamp). Hex-encoded, safe
// as a file name. The hashed message is assembled on the stack, so the key
// string is the only allocation for any fingerprint that fits.
func KeyOf(image []byte, fingerprint string) string {
	imgSum := sha256.Sum256(image)
	var msg [512]byte
	sum := sha256.Sum256(append(append(append(msg[:0], imgSum[:]...), 0), fingerprint...))
	var key [2 * sha256.Size]byte
	hex.Encode(key[:], sum[:])
	return string(key[:])
}

// Stats is a point-in-time snapshot of one Cache's counters.
type Stats struct {
	Hits      int64 // values Do served from disk or shared from an in-flight compute
	Misses    int64 // values that had to be computed
	Evictions int64 // entries removed by the MaxBytes budget
	Errors    int64 // corrupt entries Do discarded (each also a miss) and Do's failed Puts
}

// Option configures a Cache.
type Option func(*Cache)

// WithMaxBytes caps the directory's total entry size; n <= 0 (the default)
// means unbounded. Put evicts least-recently-used entries to fit, from the
// process's index of the directory, which a handle without a cap neither
// builds nor reads.
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
	idx      *index // the directory's index; nil without a cap

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	errors    atomic.Int64

	mu       sync.Mutex
	inflight map[string]*call
}

// call is one in-flight compute other goroutines can wait on.
type call struct {
	done    chan struct{}
	val     []byte
	err     error
	waiters int // callers parked on done; counted under Cache.mu
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
	if c.maxBytes > 0 {
		c.idx = indexFor(dir)
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

// Get reads the entry for key into a fresh buffer of the entry's size and
// returns its payload, which the caller owns: GetInto with no buffer.
func (c *Cache) Get(key string) ([]byte, error) { return c.GetInto(nil, key) }

// GetInto appends the payload of the entry for key to dst and returns the
// extended slice: in dst's storage when the whole entry fits after dst's
// bytes, else in a new buffer of exactly dst's bytes and the entry. It
// checks only the frame: a clean miss returns (nil, nil), and an entry
// that cannot be read or fails verification returns (nil, err) with err
// wrapping errdefs.ErrCacheCorrupt, still a miss, never a failure. It
// deletes and counts nothing; Do alone discards entries and keeps Stats. A
// hit refreshes the entry's mtime and its place in the index, so eviction
// is LRU.
func (c *Cache) GetInto(dst []byte, key string) ([]byte, error) {
	path := c.path(key)
	payload, dst, err := read(path, dst)
	if payload == nil {
		return nil, err
	}
	c.touch(key, path)
	return append(dst, payload...), nil
}

// read reads the entry at path whole into the room after buf's bytes, or,
// when that room is too small, into a new buffer of exactly buf's bytes
// and the entry, and verifies its frame. It returns the payload, which
// aliases that room, and buf over the storage it used. A clean miss
// returns a nil payload and error; an entry that cannot be read or fails
// verification returns an error wrapping errdefs.ErrCacheCorrupt. It
// deletes, counts and refreshes nothing.
func read(path string, buf []byte) (payload, used []byte, err error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, buf, nil
	}
	var entry []byte
	if err == nil {
		var fi os.FileInfo
		if fi, err = f.Stat(); err == nil {
			n := int(fi.Size())
			if cap(buf)-len(buf) < n {
				buf = append(make([]byte, 0, len(buf)+n), buf...)
			}
			entry = buf[len(buf) : len(buf)+n]
			_, err = io.ReadFull(f, entry)
		}
		f.Close()
	}
	if err == nil {
		payload, err = verify(entry)
	}
	if err != nil {
		return nil, buf, fmt.Errorf("cache: %w: %s: %w", errdefs.ErrCacheCorrupt, path, err)
	}
	return payload, buf, nil
}

// touch refreshes a hit's recency: its mtime and its place in the index.
func (c *Cache) touch(key, path string) {
	stamp(path)
	if c.idx != nil {
		c.idx.touch(key)
	}
}

// stamp sets an entry's mtime, which orders a listing, to now. Puts and
// hits both stamp, so a listing ranks entries by one clock: the
// filesystem's own write time is coarser than time.Now and would rank an
// entry written just now older than one hit a moment before it. It is
// best-effort: a failure only blurs the order.
func stamp(path string) {
	now := time.Now()
	_ = os.Chtimes(path, now, now)
}

// Put writes the entry for key atomically (atomicfile.Write), stamps its
// mtime as a hit does, and then enforces the MaxBytes budget by evicting
// least-recently-used entries. The header is built on the stack and
// written ahead of val, so the payload is never copied. Eviction is
// best-effort: its failures never surface.
func (c *Cache) Put(key string, val []byte) error {
	hdr := header(val)
	path := c.path(key)
	if err := atomicfile.Write(path, hdr[:], val); err != nil {
		return fmt.Errorf("cache: %w", err)
	}
	stamp(path)
	if c.idx != nil {
		c.evictions.Add(c.idx.put(key, int64(headerLen+len(val)), c.maxBytes))
	}
	return nil
}

// Do is the one read an analysis makes: it hands key's value to use and
// reports whether the cache had it, computing the value on a miss and
// storing it when compute says to.
//
// A warm entry is lent: read into a buffer from readBufs, it goes to use
// outside single-flight, so hits never serialize, and use must not keep
// it. Anything else, a payload use rejects included, is a miss, which
// enters single-flight on key. A caller that finds the key in flight waits
// and hands the computing call's bytes to use (a hit: no work was
// duplicated) or returns its error. The owner, the first caller, reads the
// entry again into a buffer of its own: an entry use accepts is a hit. One
// it cannot use it deletes and counts in Errors, the only place an entry is
// discarded, and then it computes. compute may return storage its caller
// reuses as soon as Do returns: the owner hands its waiters one copy of the
// value, made only when a waiter is parked. compute's errors, and values
// it declines to store, are never stored. A compute that panics releases the
// key: waiters get an error wrapping errdefs.ErrStagePanic, the panic goes
// on up the computing goroutine, and the next Do computes afresh.
func (c *Cache) Do(key string, use func(payload []byte) error, compute func() (val []byte, store bool, err error)) (hit bool, err error) {
	path := c.path(key)
	buf, _ := readBufs.Get()
	payload, buf, _ := c.accept(key, path, buf, use)
	parallel.PutBuf(&readBufs, buf)
	if payload != nil {
		return true, nil
	}
	c.mu.Lock()
	if cl, ok := c.inflight[key]; ok {
		cl.waiters++
		c.mu.Unlock()
		<-cl.done
		if cl.err != nil {
			return false, cl.err
		}
		if err := use(cl.val); err != nil {
			return false, err
		}
		c.hits.Add(1)
		return true, nil
	}
	// cl.err stays errComputePanicked unless a return below replaces it.
	cl := &call{done: make(chan struct{}), err: errComputePanicked}
	c.inflight[key] = cl
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		// val may be the caller's storage, which it reuses once Do
		// returns: waiters, whose count is final once the key is gone,
		// get a copy of their own.
		if cl.waiters > 0 {
			cl.val = bytes.Clone(cl.val)
		}
		c.mu.Unlock()
		close(cl.done)
	}()

	if payload, _, err = c.accept(key, path, nil, use); payload != nil {
		cl.val, cl.err = payload, nil
		return true, nil
	}
	// An entry another handle or process removed first is theirs to count.
	if err != nil && !os.IsNotExist(os.Remove(path)) {
		if c.idx != nil {
			c.idx.remove(key)
		}
		c.errors.Add(1)
	}
	c.misses.Add(1)
	val, store, err := compute()
	if err != nil {
		cl.err = err
		return false, err
	}
	// A Put failure (disk full, read-only dir) must not fail the analysis:
	// the computed value is still good, it just isn't persisted.
	if store {
		if perr := c.Put(key, val); perr != nil {
			c.errors.Add(1)
		}
	}
	cl.val, cl.err = val, nil
	return false, nil
}

// accept reads the entry at path into buf and hands a verified payload to
// use. A payload use accepts is a hit, which counts and refreshes the
// entry's recency; accept returns it with the buffer read into. Otherwise
// it returns the error of the read or of use, or none for a clean miss,
// and deletes nothing.
func (c *Cache) accept(key, path string, buf []byte, use func(payload []byte) error) (payload, used []byte, err error) {
	if payload, buf, err = read(path, buf); payload != nil {
		if err = use(payload); err == nil {
			c.touch(key, path)
			c.hits.Add(1)
			return payload, buf, nil
		}
	}
	return nil, buf, err
}

// Clear removes every cache entry in the directory (other files are left
// alone) and returns the first error encountered.
func (c *Cache) Clear() error {
	if c.idx != nil {
		defer c.idx.reset()
	}
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
	entries, err := listEntries(c.dir)
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
	key   string
	size  int64
	mtime int64 // unix nanos
}

// listEntries lists and stats every entry in dir.
func listEntries(dir string) ([]entryInfo, error) {
	dirents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	var out []entryInfo
	for _, e := range dirents {
		key, ok := strings.CutSuffix(e.Name(), entryExt)
		if !ok || !e.Type().IsRegular() {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue // raced with a concurrent eviction
		}
		out = append(out, entryInfo{key: key, size: fi.Size(), mtime: fi.ModTime().UnixNano()})
	}
	return out, nil
}

// header renders the line that frames payload in its entry:
//
//	firmcache1 <lower-case hex sha256(payload)>\n<payload>
func header(payload []byte) (h [headerLen]byte) {
	copy(h[:], headerMagic)
	h[len(headerMagic)] = ' '
	sum := sha256.Sum256(payload)
	hex.Encode(h[len(headerMagic)+1:], sum[:])
	h[headerLen-1] = '\n'
	return h
}

// verify checks an entry's frame and returns its payload, a subslice of
// entry, allocating nothing. The header must be exactly the one header
// renders for the payload: no other spelling of the sum, nothing after it.
func verify(entry []byte) ([]byte, error) {
	if len(entry) < headerLen || string(entry[:len(headerMagic)+1]) != headerMagic+" " || entry[headerLen-1] != '\n' {
		return nil, errBadHeader
	}
	payload := entry[headerLen:]
	if want := header(payload); !bytes.Equal(entry[:headerLen], want[:]) {
		return nil, errChecksum
	}
	return payload, nil
}
