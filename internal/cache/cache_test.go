package cache

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmres/internal/errdefs"
)

// reader is one way to read an entry.
type reader struct {
	name     string
	discards bool // a corrupt entry is a miss the read deletes and counts
	read     func(c *Cache, key string) ([]byte, error)
}

// readers are the two ways to read an entry: Get, the probe, which reads
// a corrupt entry as an error and leaves it, and Do, the analysis read,
// whose single-flight owner deletes and counts it. The corruption tests
// run through both. The Do reader copies the lent payload out before the
// buffer goes back to the pool, and its compute stores nothing.
var readers = []reader{
	{"Get", false, (*Cache).Get},
	{"Do", true, func(c *Cache, key string) ([]byte, error) {
		var got []byte
		computed := false
		hit, err := c.Do(key, func(payload []byte) error {
			got = append([]byte{}, payload...)
			return nil
		}, func() ([]byte, bool, error) {
			computed = true
			return nil, false, nil
		})
		if hit != (got != nil) || hit == computed {
			return nil, fmt.Errorf("Do reported hit=%t, computed=%t, but lent %q", hit, computed, got)
		}
		return got, err
	}},
}

// readCorrupt reads key's corrupt entry through r and checks r's contract:
// Get returns an error wrapping ErrCacheCorrupt and leaves the entry in
// place; Do misses silently and deletes it.
func readCorrupt(t *testing.T, r reader, c *Cache, key, what string) {
	t.Helper()
	data, err := r.read(c, key)
	_, statErr := os.Stat(filepath.Join(c.dir, key+entryExt))
	switch {
	case data != nil:
		t.Errorf("%s via %s returned data %q", what, r.name, data)
	case r.discards && (err != nil || !os.IsNotExist(statErr)):
		t.Errorf("%s via %s = %v, entry stat %v; want a miss that deletes the entry", what, r.name, err, statErr)
	case !r.discards && (!errors.Is(err, errdefs.ErrCacheCorrupt) || statErr != nil):
		t.Errorf("%s via %s = %v, entry stat %v; want ErrCacheCorrupt and the entry left in place", what, r.name, err, statErr)
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	base := KeyOf([]byte("image-a"), "fp1")
	if len(base) != 64 {
		t.Fatalf("key length = %d, want 64 hex chars", len(base))
	}
	if got := KeyOf([]byte("image-a"), "fp1"); got != base {
		t.Errorf("same inputs gave different keys: %s vs %s", got, base)
	}
	if got := KeyOf([]byte("image-b"), "fp1"); got == base {
		t.Errorf("different image bytes collided on %s", got)
	}
	if got := KeyOf([]byte("image-a"), "fp2"); got == base {
		t.Errorf("different fingerprints collided on %s", got)
	}
}

// TestKeyOfPinned pins KeyOf to the keys existing cache directories were
// written under, for a fingerprint that fits KeyOf's stack buffer and one
// that does not.
func TestKeyOfPinned(t *testing.T) {
	img := []byte("firmware image bytes")
	for _, tc := range []struct{ fp, want string }{
		{
			"pipeline=v7;classifier=*semantics.KeywordClassifier;stage-timeout=0;lint=true;metrics=false;",
			"729add826d5600ca0aeb518b8740ae92955c41cc101c22223c33cc1bfed572e4",
		},
		{
			strings.Repeat("probe=chaos;", 60),
			"4100dff181821a0ec6d24f311d7a312db706c0ce06b15ec015174210f2b381ee",
		},
	} {
		if got := KeyOf(img, tc.fp); got != tc.want {
			t.Errorf("KeyOf(%q, %d-byte fingerprint) = %s, want %s", img, len(tc.fp), got, tc.want)
		}
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	if data, err := c.Get(key); err != nil || data != nil {
		t.Fatalf("Get on empty cache = (%q, %v), want (nil, nil)", data, err)
	}
	want := []byte(`{"Device":"d"}`)
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	got, err := c.Get(key)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("round trip = %q, want %q", got, want)
	}
}

// TestGetIntoReadsIntoBuffer: GetInto appends the payload to the buffer it
// is given, in that buffer's storage when the whole entry fits after its
// bytes, and in a new buffer of exactly its bytes and the entry when it
// does not.
func TestGetIntoReadsIntoBuffer(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	want := []byte(`{"Device":"d"}`)
	if err := c.Put(key, want); err != nil {
		t.Fatal(err)
	}
	roomy := append(make([]byte, 0, 4096), "img"...)
	got, err := c.GetInto(roomy, key)
	if err != nil || string(got) != "img"+string(want) {
		t.Fatalf("GetInto = (%q, %v), want (%q, nil)", got, err, "img"+string(want))
	}
	if &got[0] != &roomy[0] {
		t.Error("GetInto did not append the payload in the given buffer's storage")
	}
	small := append(make([]byte, 0, 8), "img"...)
	if got, err = c.GetInto(small, key); err != nil || string(got) != "img"+string(want) {
		t.Fatalf("GetInto(small buffer) = (%q, %v), want (%q, nil)", got, err, "img"+string(want))
	}
	if cap(got) != len(small)+headerLen+len(want) {
		t.Errorf("GetInto(small buffer) read into %d bytes of storage, want a new buffer of the %d bytes and the entry's %d", cap(got), len(small), headerLen+len(want))
	}
}

func TestCorruptEntryIsMissAndDeleted(t *testing.T) {
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := KeyOf([]byte("img"), "fp")
			if err := c.Put(key, []byte("payload")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key+entryExt)
			if err := os.WriteFile(path, []byte("firmcache1 deadbeef\ntampered"), 0o644); err != nil {
				t.Fatal(err)
			}
			readCorrupt(t, r, c, key, "tampered entry")
			if !r.discards {
				// A probe neither deletes nor counts.
				if s := c.Stats(); s != (Stats{}) {
					t.Errorf("stats = %+v after Get, want none counted", s)
				}
				return
			}
			if s := c.Stats(); s.Errors != 1 || s.Misses != 1 || s.Hits != 0 {
				t.Errorf("stats = %+v, want 1 error, 1 miss and no hit", s)
			}
			// A second read is a clean miss: the bad entry is gone.
			if data, err := r.read(c, key); err != nil || data != nil {
				t.Errorf("read after deletion = (%q, %v), want (nil, nil)", data, err)
			}
			if s := c.Stats(); s.Errors != 1 || s.Misses != 2 {
				t.Errorf("stats = %+v, want the clean miss counted and no second error", s)
			}
		})
	}
}

func TestTruncatedEntryIsCorrupt(t *testing.T) {
	for _, r := range readers {
		t.Run(r.name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			key := KeyOf([]byte("img"), "fp")
			if err := c.Put(key, []byte("a long enough payload to truncate")); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, key+entryExt)
			full, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, full[:len(full)-5], 0o644); err != nil {
				t.Fatal(err)
			}
			readCorrupt(t, r, c, key, "truncated entry")
		})
	}
}

// TestDoLendsPayload checks Do's hit, miss and corrupt-entry contract and
// its accounting: a lent hit counts and computes nothing; a miss computes
// and calls no use; a payload use rejects is corrupt — a miss, deleted
// and counted in Errors — and is computed afresh.
func TestDoLendsPayload(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	computed := 0
	compute := func() ([]byte, bool, error) {
		computed++
		return nil, false, nil
	}
	called := false
	hit, err := c.Do(key, func([]byte) error { called = true; return nil }, compute)
	if hit || err != nil || called || computed != 1 {
		t.Fatalf("Do on empty cache = (%t, %v), use called %t, %d computes; want a miss that calls no use", hit, err, called, computed)
	}
	if err := c.Put(key, []byte("value")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // later rounds read into a recycled buffer
		var got string
		hit, err = c.Do(key, func(payload []byte) error {
			got = string(payload)
			return nil
		}, compute)
		if !hit || err != nil || got != "value" || computed != 1 {
			t.Fatalf("Do %d = (%t, %v) lending %q after %d computes, want a hit lending \"value\"", i, hit, err, got, computed)
		}
	}
	boom := errors.New("boom")
	hit, err = c.Do(key, func([]byte) error { return boom }, compute)
	if hit || err != nil || computed != 2 {
		t.Fatalf("Do rejecting the payload = (%t, %v) after %d computes, want a miss computed afresh", hit, err, computed)
	}
	if val, err := c.Get(key); val != nil || err != nil {
		t.Errorf("Get after a rejected payload = (%q, %v), want the entry deleted", val, err)
	}
	if s := c.Stats(); s.Hits != 3 || s.Misses != 2 || s.Errors != 1 {
		t.Errorf("stats = %+v, want 3 hits, 2 misses and 1 error", s)
	}
}

// TestCheckRejectsPayload: a verified entry whose payload use rejects is
// still an entry to Get, which checks only the frame, and the probe counts
// nothing; to Do it is corrupt — a miss, deleted and counted once — and
// Do computes the value afresh and stores it.
func TestCheckRejectsPayload(t *testing.T) {
	bad := errors.New("not a value")
	check := func(payload []byte) error {
		if string(payload) == "bad" {
			return bad
		}
		return nil
	}
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	if err := c.Put(key, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	if val, err := c.Get(key); string(val) != "bad" || err != nil {
		t.Fatalf("Get of a verified payload = (%q, %v), want the payload", val, err)
	}
	if s := c.Stats(); s != (Stats{}) {
		t.Fatalf("stats = %+v after Get, want none counted", s)
	}
	hit, err := c.Do(key, check, func() ([]byte, bool, error) { return []byte("good"), true, nil })
	if hit || err != nil {
		t.Fatalf("Do over a rejected payload = (%t, %v), want the computed value", hit, err)
	}
	if val, err := c.Get(key); string(val) != "good" || err != nil {
		t.Errorf("Get after Do = (%q, %v), want the stored value", val, err)
	}
	hit, err = c.Do(key, check, func() ([]byte, bool, error) { return nil, false, errors.New("recomputed a stored value") })
	if !hit || err != nil {
		t.Errorf("Do over the stored value = (%t, %v), want a hit", hit, err)
	}
	if s := c.Stats(); s.Hits != 1 || s.Misses != 1 || s.Errors != 1 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss and 1 error", s)
	}
}

// TestOnlyOwnerDiscards forces the interleaving a batch of two workers
// over one corrupt entry hits by chance. The entry's checksum holds but
// use rejects its payload. The first caller's use blocks on the lent
// read; meanwhile the second caller discards the entry, computes and puts
// the healed value. Released, the first caller rejects the stale bytes it
// was lent, and must neither delete nor count the healed entry: its owner
// read finds it, a hit. A lent read that deleted what it rejected by path
// deleted the healed entry here.
func TestOnlyOwnerDiscards(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	if err := c.Put(key, []byte("bad")); err != nil {
		t.Fatal(err)
	}
	check := func(payload []byte) error {
		if string(payload) == "bad" {
			return errors.New("not a value")
		}
		return nil
	}
	lent, release := make(chan struct{}), make(chan struct{})
	first := make(chan error, 1)
	go func() {
		blocked := false
		hit, err := c.Do(key, func(payload []byte) error {
			if !blocked {
				blocked = true
				close(lent)
				<-release
			}
			return check(payload)
		}, func() ([]byte, bool, error) {
			return nil, false, errors.New("the first caller computed")
		})
		if err == nil && !hit {
			err = errors.New("the first caller missed")
		}
		first <- err
	}()
	<-lent
	hit, err := c.Do(key, check, func() ([]byte, bool, error) { return []byte("good"), true, nil })
	if hit || err != nil {
		t.Fatalf("second Do = (%t, %v), want a computed miss", hit, err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if val, err := c.Get(key); string(val) != "good" || err != nil {
		t.Errorf("entry after both calls = (%q, %v), want the healed value", val, err)
	}
	if s := c.Stats(); s.Errors != 1 || s.Misses != 1 || s.Hits != 1 {
		t.Errorf("stats = %+v, want 1 error, 1 miss and 1 hit", s)
	}
}

func TestDoSingleFlight(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	var computes atomic.Int64
	var wg sync.WaitGroup
	const workers = 16
	results := make([][]byte, workers)
	for i := 0; i < workers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Do(key, func(payload []byte) error {
				results[i] = append([]byte{}, payload...)
				return nil
			}, func() ([]byte, bool, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				results[i] = []byte("value")
				return results[i], true, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
		}()
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want 1", n)
	}
	for i, r := range results {
		if string(r) != "value" {
			t.Errorf("worker %d got %q", i, r)
		}
	}
	s := c.Stats()
	if s.Misses != 1 || s.Hits != workers-1 {
		t.Errorf("stats = %+v, want 1 miss and %d hits", s, workers-1)
	}
}

// TestWaitersOutliveOwnerStorage parks waiters on one compute whose value
// is the owner's reused storage, which the owner overwrites as soon as its
// Do returns: every waiter's use must still see the computed bytes.
func TestWaitersOutliveOwnerStorage(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	const waiters = 8
	want := []byte("the computed report")
	storage := make([]byte, 0, 64)
	computing := make(chan struct{})
	got := make([][]byte, waiters)
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-computing
			hit, err := c.Do(key, func(payload []byte) error {
				got[i] = append([]byte(nil), payload...)
				return nil
			}, func() ([]byte, bool, error) {
				return nil, false, errors.New("a waiter computed")
			})
			if err != nil || !hit {
				t.Errorf("waiter %d: hit=%v err=%v", i, hit, err)
			}
		}()
	}
	hit, err := c.Do(key, func([]byte) error { return nil }, func() ([]byte, bool, error) {
		close(computing)
		for parked := 0; parked < waiters; {
			time.Sleep(time.Millisecond)
			c.mu.Lock()
			parked = c.inflight[key].waiters
			c.mu.Unlock()
		}
		storage = append(storage[:0], want...)
		return storage, false, nil
	})
	if err != nil || hit {
		t.Fatalf("owner: hit=%v err=%v", hit, err)
	}
	copy(storage[:cap(storage)], bytes.Repeat([]byte("X"), cap(storage)))
	wg.Wait()
	for i, g := range got {
		if !bytes.Equal(g, want) {
			t.Errorf("waiter %d saw %q, want %q", i, g, want)
		}
	}
}

// TestDoPanicReleasesKey makes a compute panic while another Do waits on
// it: the panic must reach the computing goroutine with its own value,
// the waiter must come back with an error wrapping ErrStagePanic or a
// value it computed itself, and a later Do must not block on the key.
func TestDoPanicReleasesKey(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	started := make(chan struct{})
	waiter := make(chan error, 1)
	accept := func([]byte) error { return nil }
	go func() {
		<-started
		var val []byte
		_, err := c.Do(key, func(payload []byte) error {
			val = append([]byte{}, payload...)
			return nil
		}, func() ([]byte, bool, error) {
			val = []byte("fresh")
			return val, true, nil
		})
		switch {
		case err != nil && !errors.Is(err, errdefs.ErrStagePanic):
			waiter <- fmt.Errorf("waiter error %v does not wrap ErrStagePanic", err)
		case err == nil && string(val) != "fresh":
			waiter <- fmt.Errorf("waiter got %q, want the value it computed", val)
		default:
			waiter <- nil
		}
	}()
	func() {
		defer func() {
			if r := recover(); r != "compute exploded" {
				t.Errorf("recovered %v, want the compute's own panic value", r)
			}
		}()
		c.Do(key, accept, func() ([]byte, bool, error) {
			close(started)
			time.Sleep(20 * time.Millisecond) // let the waiter join the call
			panic("compute exploded")
		})
	}()
	select {
	case err := <-waiter:
		if err != nil {
			t.Error(err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("a waiter on the panicking compute is still blocked")
	}
	second := make(chan error, 1)
	go func() {
		_, err := c.Do(key, accept, func() ([]byte, bool, error) { return []byte("second"), true, nil })
		second <- err
	}()
	select {
	case err := <-second:
		if err != nil {
			t.Errorf("Do after the panic: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Do after a panicking compute blocked: the key was never released")
	}
}

func TestDoErrorNotCached(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	boom := errors.New("boom")
	accept := func([]byte) error { return nil }
	if _, err := c.Do(key, accept, func() ([]byte, bool, error) { return nil, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	// The failure was not persisted: the next Do computes again.
	computed := false
	hit, err := c.Do(key, accept, func() ([]byte, bool, error) { computed = true; return []byte("ok"), true, nil })
	if err != nil || hit || !computed {
		t.Errorf("Do after failure = (%t, %v), computed %t; want a fresh compute", hit, err, computed)
	}
}

func TestDoValueNotStored(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	for i := 0; i < 2; i++ {
		computed := false
		hit, err := c.Do(key, func([]byte) error { return nil }, func() ([]byte, bool, error) {
			computed = true
			return []byte("degraded"), false, nil
		})
		if err != nil || hit || !computed {
			t.Fatalf("Do %d = (%t, %v), computed %t; want computed degraded", i, hit, err, computed)
		}
	}
	if got, err := c.Get(key); got != nil || err != nil {
		t.Errorf("unstored value on disk: Get = (%q, %v)", got, err)
	}
	if n, err := c.SizeBytes(); n != 0 || err != nil {
		t.Errorf("SizeBytes = (%d, %v), want an empty directory", n, err)
	}
	if s := c.Stats(); s.Misses != 2 || s.Hits != 0 {
		t.Errorf("stats = %+v, want 2 misses and no hits", s)
	}
}

func TestEvictionLRU(t *testing.T) {
	dir := t.TempDir()
	// Entries are ~90 bytes framed; cap at three entries' worth.
	entry := []byte("0123456789012345678901234567890123456789") // 40 B payload
	framed := headerLen + len(entry)
	c, err := Open(dir, WithMaxBytes(int64(3*framed)))
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 4)
	base := time.Now().Add(-time.Hour)
	for i := 0; i < 3; i++ {
		keys[i] = KeyOf([]byte{byte(i)}, "fp")
		if err := c.Put(keys[i], entry); err != nil {
			t.Fatal(err)
		}
		// Pin distinct mtimes so LRU order is unambiguous.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, keys[i]+entryExt), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Touch key 0: it becomes the most recently used.
	if _, err := c.Get(keys[0]); err != nil {
		t.Fatal(err)
	}
	// A fourth entry overflows the cap; key 1 is now the oldest.
	keys[3] = KeyOf([]byte{3}, "fp")
	if err := c.Put(keys[3], entry); err != nil {
		t.Fatal(err)
	}
	if s := c.Stats(); s.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", s.Evictions)
	}
	if data, err := c.Get(keys[1]); err != nil || data != nil {
		t.Errorf("LRU victim still present: (%q, %v)", data, err)
	}
	for _, k := range []string{keys[0], keys[2], keys[3]} {
		if data, err := c.Get(k); err != nil || data == nil {
			t.Errorf("entry %s evicted or corrupt: (%q, %v)", k[:8], data, err)
		}
	}
}

func TestClearRemovesOnlyEntries(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := c.Put(KeyOf([]byte{byte(i)}, "fp"), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	bystander := filepath.Join(dir, "README.txt")
	if err := os.WriteFile(bystander, []byte("not a cache entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := c.Clear(); err != nil {
		t.Fatal(err)
	}
	size, err := c.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size != 0 {
		t.Errorf("entries remain after Clear: %d bytes", size)
	}
	if _, err := os.Stat(bystander); err != nil {
		t.Errorf("Clear touched a non-entry file: %v", err)
	}
	// Clear keeps non-entry files, so this also shows Put left no temp file.
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Errorf("directory after Clear holds %d files (%v), want only the bystander", len(ents), err)
	}
}

func TestOpenCreatesDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "cache")
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(dir)
	if err != nil || !fi.IsDir() {
		t.Errorf("Open did not create %s: %v", dir, err)
	}
}

// TestEntryFrame checks the writer's frame byte for byte and that the
// verifier accepts exactly that frame: every other header reads as a
// corrupt entry, through Get and Do alike.
func TestEntryFrame(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	path := filepath.Join(dir, key+entryExt)
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte(fmt.Sprintf("%01000d", 7))} {
		if err := c.Put(key, payload); err != nil {
			t.Fatal(err)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(payload)
		want := "firmcache1 " + hex.EncodeToString(sum[:]) + "\n" + string(payload)
		if string(raw) != want {
			t.Errorf("entry for %d-byte payload = %q, want %q", len(payload), raw, want)
		}
		got, err := verify(raw)
		if err != nil || !bytes.Equal(got, payload) {
			t.Errorf("verify(entry of %q) = (%q, %v)", payload, got, err)
		}
	}

	payload := []byte(`{"Device":"d"}`)
	sum := sha256.Sum256(payload)
	sumHex := hex.EncodeToString(sum[:])
	for _, tc := range []struct{ name, entry string }{
		{"trailing junk", "firmcache1 " + sumHex + " junk\n" + string(payload)},
		{"upper-case hex", "firmcache1 " + strings.ToUpper(sumHex) + "\n" + string(payload)},
		{"short sum", "firmcache1 " + sumHex[:63] + "\n" + string(payload)},
		{"wrong sum", "firmcache1 " + strings.Repeat("0", 64) + "\n" + string(payload)},
		{"wrong magic", "firmcache2 " + sumHex + "\n" + string(payload)},
		{"no newline", "firmcache1 " + sumHex},
		{"empty", ""},
	} {
		for _, r := range readers {
			if err := os.WriteFile(path, []byte(tc.entry), 0o644); err != nil {
				t.Fatal(err)
			}
			readCorrupt(t, r, c, key, tc.name)
		}
	}
}

// fill puts n entries of size framed bytes through c, under keys named by
// prefix, and returns the keys.
func fill(t *testing.T, c *Cache, prefix string, n, framed int) []string {
	t.Helper()
	keys := make([]string, n)
	for i := range keys {
		keys[i] = KeyOf([]byte(fmt.Sprint(prefix, i)), "fp")
		if err := c.Put(keys[i], bytes.Repeat([]byte{'a' + byte(i%26)}, framed-headerLen)); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestListingFollowsWritesAndHits: a put and a hit stamp their entry by
// one clock, so a listing, least recently modified first and ties broken
// by key as the index orders it, ranks entries in the order they were
// last written or hit. Entries are written and hit in a tight loop, and
// no mtime is pinned.
func TestListingFollowsWritesAndHits(t *testing.T) {
	dir := t.TempDir()
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var order []string // keys, least recently written or hit first
	touch := func(key string) {
		order = slices.DeleteFunc(order, func(k string) bool { return k == key })
		order = append(order, key)
	}
	for i := 0; i < 40; i++ {
		key := KeyOf([]byte(fmt.Sprint("entry", i)), "fp")
		if err := c.Put(key, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
		touch(key)
		if i%2 == 1 {
			hit := order[0]
			if v, err := c.Get(hit); err != nil || v == nil {
				t.Fatalf("Get(%s) = %v, %v", hit, v, err)
			}
			touch(hit)
		}
	}
	ents, err := listEntries(dir)
	if err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(ents, func(a, b entryInfo) int {
		return cmp.Or(cmp.Compare(a.mtime, b.mtime), cmp.Compare(a.key, b.key))
	})
	listed := make([]string, len(ents))
	for i, e := range ents {
		listed[i] = e.key
	}
	if !slices.Equal(listed, order) {
		for i := range order {
			if i < len(listed) && listed[i] != order[i] {
				t.Fatalf("listing diverges from the write/hit order at position %d of %d: %s, want %s", i, len(order), listed[i], order[i])
			}
		}
		t.Fatalf("listing holds %d entries, want %d", len(listed), len(order))
	}
}

// TestCapCountsOtherWriters: entries written behind the process's index,
// as another process or an uncapped handle would write them, are counted
// no later than once the process has put MaxBytes more, and then the
// directory is back under the cap.
func TestCapCountsOtherWriters(t *testing.T) {
	dir := t.TempDir()
	const framed, entries = 100, 10
	const maxBytes = framed * entries
	c, err := Open(dir, WithMaxBytes(maxBytes))
	if err != nil {
		t.Fatal(err)
	}
	fill(t, c, "mine", entries, framed)
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fill(t, other, "theirs", entries, framed)
	if size, err := c.SizeBytes(); err != nil || size != 2*maxBytes {
		t.Fatalf("SizeBytes after the other writer = (%d, %v), want %d", size, err, 2*maxBytes)
	}
	for i := 0; i < entries; i++ {
		if err := c.Put(KeyOf([]byte(fmt.Sprint("more", i)), "fp"), bytes.Repeat([]byte("m"), framed-headerLen)); err != nil {
			t.Fatal(err)
		}
	}
	if size, err := c.SizeBytes(); err != nil || size > maxBytes {
		t.Errorf("after putting MaxBytes more the directory holds %d B (%v), over its %d B cap", size, err, maxBytes)
	}
}

// TestEvictionRelistsWhenVictimGone: an eviction that finds its victim
// already removed by someone else lists the directory again, so entries
// written behind the index in the meantime are counted at once.
func TestEvictionRelistsWhenVictimGone(t *testing.T) {
	dir := t.TempDir()
	const framed, entries = 100, 10
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	keys := fill(t, other, "old", entries, framed)
	base := time.Now().Add(-time.Hour)
	for i, k := range keys { // distinct mtimes: the listing's LRU order is keys'
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(filepath.Join(dir, k+entryExt), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	c, err := Open(dir, WithMaxBytes(framed*entries))
	if err != nil {
		t.Fatal(err)
	}
	// The first capped Put lists the full directory and evicts keys[0].
	fill(t, c, "first", 1, framed)
	// Behind the index: keys[1], the next victim, goes, and a large entry
	// comes.
	if err := os.Remove(filepath.Join(dir, keys[1]+entryExt)); err != nil {
		t.Fatal(err)
	}
	fill(t, other, "large", 1, 3*framed)
	fill(t, c, "second", 1, framed)
	if size, err := c.SizeBytes(); err != nil || size > framed*entries {
		t.Errorf("directory holds %d B (%v) after the relist, over its %d B cap", size, err, framed*entries)
	}
	if got := c.Stats().Evictions; got != 4 {
		t.Errorf("evictions = %d, want 4: keys[0], then three entries for the large one", got)
	}
}

// TestCappedHandlesShareDirectory runs Do calls, Puts and evictions on one
// capped directory from two handles at once. Every hit lends the payload
// put under its key, and once they stop the directory is within its cap.
func TestCappedHandlesShareDirectory(t *testing.T) {
	dir := t.TempDir()
	const framed, keys = 200, 40
	maxBytes := int64(framed * keys / 4)
	var handles [2]*Cache
	for i := range handles {
		c, err := Open(dir, WithMaxBytes(maxBytes))
		if err != nil {
			t.Fatal(err)
		}
		handles[i] = c
	}
	payload := func(k int) []byte { return bytes.Repeat([]byte{byte('a' + k%26)}, framed-headerLen) }
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		c := handles[g%2]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (g*7 + i*3) % keys
				key := KeyOf([]byte(fmt.Sprint(k)), "fp")
				if i%3 == 0 {
					if err := c.Put(key, payload(k)); err != nil {
						t.Error(err)
						return
					}
					continue
				}
				_, err := c.Do(key, func(p []byte) error {
					if !bytes.Equal(p, payload(k)) {
						t.Errorf("key %d lent %q", k, p)
						return errors.New("wrong payload")
					}
					return nil
				}, func() ([]byte, bool, error) { return payload(k), true, nil })
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if size, err := handles[0].SizeBytes(); err != nil || size > maxBytes {
		t.Errorf("directory holds %d B (%v), over its %d B cap", size, err, maxBytes)
	}
	if ev := handles[0].Stats().Evictions + handles[1].Stats().Evictions; ev == 0 {
		t.Error("no eviction ran")
	}
}

// FuzzCacheEntry feeds raw entry bytes, as a writer to the directory could
// store them, through verify and Do: neither panics, and both accept
// exactly the frame Put writes for the payload, Do lending that payload.
// Do misses every rejected entry, computes, and its owner deletes the
// entry; the compute stores nothing.
func FuzzCacheEntry(f *testing.F) {
	for _, p := range []string{"", "x", `{"Device":"d"}`, fmt.Sprintf("%0300d", 7)} {
		hdr := header([]byte(p))
		f.Add(append(hdr[:], p...))
	}
	f.Add([]byte("firmcache1 deadbeef\ntampered"))
	f.Add([]byte("firmcache1 " + strings.Repeat("0", 64) + "\n{}"))
	dir := f.TempDir()
	c, err := Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	key := KeyOf([]byte("fuzzed"), "fp")
	path := filepath.Join(dir, key+entryExt)
	f.Fuzz(func(t *testing.T, entry []byte) {
		payload, verr := verify(entry)
		if err := os.WriteFile(path, entry, 0o644); err != nil {
			t.Fatal(err)
		}
		var lent []byte
		computed := false
		hit, err := c.Do(key, func(p []byte) error {
			lent = append([]byte{}, p...)
			return nil
		}, func() ([]byte, bool, error) {
			computed = true
			return nil, false, nil
		})
		if err != nil || hit != (verr == nil) || hit == computed {
			t.Fatalf("Do = (%t, %v), computed %t, where verify says %v", hit, err, computed, verr)
		}
		if !hit {
			if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
				t.Fatal("rejected entry not deleted")
			}
			return
		}
		if !bytes.Equal(lent, payload) {
			t.Fatalf("Do lent %q, verify returned %q", lent, payload)
		}
		if err := c.Put(key, lent); err != nil {
			t.Fatal(err)
		}
		if written, err := os.ReadFile(path); err != nil || !bytes.Equal(written, entry) {
			t.Fatalf("accepted %q, but Put writes %q for its payload (%v)", entry, written, err)
		}
	})
}
