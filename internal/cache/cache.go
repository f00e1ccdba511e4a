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
//   - One verified read path: Get, View and Do's disk check all read an
//     entry whole into a buffer, check its header and SHA-256 without
//     allocating, run the payload check (WithCheck; View's callback stands
//     in for it), and refresh its mtime. A mismatch (truncation, bit rot,
//     hostile edit) or a payload the check rejects reads as a miss, the
//     bad entry is deleted, and the error — wrapping
//     errdefs.ErrCacheCorrupt — is surfaced as a note, never a failure.
//   - Owned or lent: Get returns a payload the caller owns, in a fresh
//     buffer of the entry's size. View lends the payload, in a buffer from
//     the process's free list of read buffers, to a callback and hands the
//     buffer back when it returns, so the callback must not keep the
//     payload or any slice of it.
//   - Single-flight over computes: concurrent Do calls on one handle that
//     miss compute the value once; the other callers block and share it.
//     A warm hit read with View passes through no single-flight at all.
//     Handles that share a directory share entries, not computes.
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
	// maxFreeBuf caps the read buffers View hands back to readBufs, so one
	// outsized entry does not keep its buffer alive for the process.
	maxFreeBuf = 1 << 20
)

var (
	errBadHeader = errors.New("bad header")
	errChecksum  = errors.New("checksum mismatch")
	// errComputePanicked is what the waiters of a compute that never
	// returned receive.
	errComputePanicked = fmt.Errorf("cache: %w in a shared compute", errdefs.ErrStagePanic)
)

// readBufs is the process's free list of View's read buffers: at most one
// per analysis worker, each at most maxFreeBuf, kept across collections.
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
	Hits      int64 // values Do or View served from disk, or Do shared from an in-flight compute
	Misses    int64 // values that had to be computed
	Evictions int64 // entries removed by the MaxBytes budget
	Errors    int64 // corrupt entries discarded (each also counted a miss)
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

// WithCheck sets the check a payload read from disk must pass, beyond its
// checksum, to be an entry: one that verifies but that the caller cannot
// use is as corrupt as one that does not verify. Get and Do's disk check
// run it; View's callback stands in for it. Without it every verified
// payload is an entry.
func WithCheck(check func(payload []byte) error) Option {
	return func(c *Cache) { c.check = check }
}

// Cache is one handle onto an on-disk cache directory. Safe for concurrent
// use; multiple handles (or processes) may share a directory — the atomic
// rename write and checksummed read keep them consistent, though
// single-flight deduplication is per-handle.
type Cache struct {
	dir      string
	maxBytes int64
	check    func(payload []byte) error // WithCheck; nil accepts every payload
	idx      *index                     // the directory's index; nil without a cap

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
// returns its payload, which the caller owns. A clean miss returns (nil,
// nil); a corrupt entry is deleted and returns (nil, err) with err
// wrapping errdefs.ErrCacheCorrupt — still a miss, never a failure. A hit
// refreshes the entry's mtime and its place in the index, so eviction is
// LRU. Get counts no hit or miss: Do and View own that accounting (a raw
// Get is a probe).
func (c *Cache) Get(key string) ([]byte, error) {
	payload, _, err := c.read(key, nil, c.check)
	return payload, err
}

// View reads the entry for key into a buffer from readBufs and, if it
// verifies, lends the payload to fn, handing the buffer back once fn
// returns: fn must not keep the payload or any slice of it. fn stands in
// for the handle's check, so a payload fn rejects is corrupt. View
// reports whether fn accepted a verified entry: a hit, which refreshes the
// entry's recency and counts in Stats.Hits. A miss returns (false, nil),
// or (false, err) for a corrupt entry, which is deleted as by Get; it
// counts nothing, since a caller that misses goes on to Do, which does.
func (c *Cache) View(key string, fn func(payload []byte) error) (hit bool, err error) {
	buf, _ := readBufs.Get()
	payload, buf, err := c.read(key, buf, fn)
	if payload != nil {
		c.hits.Add(1)
	}
	if n := cap(buf); n > 0 && n <= maxFreeBuf {
		readBufs.Put(buf[:0])
	}
	return payload != nil, err
}

// read is the one read path. It reads key's entry whole into buf, or into
// a new buffer of exactly the entry's size when buf is too small, verifies
// the frame, runs check (nil: none) on the payload and refreshes the
// entry's recency. It returns the payload, which aliases the buffer it also
// returns. A clean miss returns a nil payload and error; an unreadable
// entry counts in Errors, and one that fails verification or the check is
// deleted and counted by the reader that deletes it, each returning an
// error that wraps errdefs.ErrCacheCorrupt.
func (c *Cache) read(key string, buf []byte, check func(payload []byte) error) (payload, used []byte, err error) {
	path := c.path(key)
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, buf, nil
		}
		return nil, buf, c.corrupt(key, err)
	}
	fi, err := f.Stat()
	if err == nil {
		if n := int(fi.Size()); cap(buf) < n {
			buf = make([]byte, n)
		} else {
			buf = buf[:n]
		}
		_, err = io.ReadFull(f, buf)
	}
	f.Close()
	if err != nil {
		return nil, buf, c.corrupt(key, err)
	}
	if payload, err = verify(buf); err == nil && check != nil {
		err = check(payload)
	}
	if err != nil {
		// Two readers can find one entry corrupt at once; only the one
		// whose Remove deletes it counts it, so Errors counts each
		// discarded entry once.
		if os.IsNotExist(os.Remove(path)) {
			return nil, buf, corruptErr(key, err)
		}
		if c.idx != nil {
			c.idx.remove(key)
		}
		return nil, buf, c.corrupt(key, err)
	}
	stamp(path)
	if c.idx != nil {
		c.idx.touch(key)
	}
	return payload, buf, nil
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

// corrupt counts an entry that could not be used and wraps its cause.
func (c *Cache) corrupt(key string, err error) error {
	c.errors.Add(1)
	return corruptErr(key, err)
}

func corruptErr(key string, err error) error {
	return fmt.Errorf("cache: %w: %s: %w", errdefs.ErrCacheCorrupt, key, err)
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

// Do returns the cached value for key, computing it on a miss and storing
// it when compute says to. Concurrent Do calls for the same key share one
// compute: the first caller runs it, the rest block and receive the same
// bytes (counted as hits — no work was duplicated), stored or not. compute
// errors are returned to every waiter and nothing is stored, so failures
// are never cached; neither is a value compute declines to store. A
// compute that panics releases the key: its waiters get an error wrapping
// errdefs.ErrStagePanic, the panic goes on up the computing goroutine, and
// the next Do computes afresh. A corrupt on-disk entry degrades to a miss;
// its error is dropped here (the Errors counter and the deleted entry
// remain) because the recomputed value supersedes it.
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
	// cl.err stays errComputePanicked unless a return below replaces it.
	cl := &call{done: make(chan struct{}), err: errComputePanicked}
	c.inflight[key] = cl
	c.mu.Unlock()
	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(cl.done)
	}()

	if data, _ := c.Get(key); data != nil {
		c.hits.Add(1)
		cl.val, cl.err = data, nil
		return data, true, nil
	}
	c.misses.Add(1)
	data, store, err := compute()
	if err != nil {
		cl.err = err
		return nil, false, err
	}
	// A Put failure (disk full, read-only dir) must not fail the analysis:
	// the computed value is still good, it just isn't persisted.
	if store {
		if perr := c.Put(key, data); perr != nil {
			c.errors.Add(1)
		}
	}
	cl.val, cl.err = data, nil
	return data, false, nil
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
