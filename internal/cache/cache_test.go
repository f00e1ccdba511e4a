package cache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"firmres/internal/errdefs"
)

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

func TestCorruptEntryIsMissAndDeleted(t *testing.T) {
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
	data, err := c.Get(key)
	if data != nil {
		t.Errorf("corrupt entry returned data %q", data)
	}
	if !errors.Is(err, errdefs.ErrCacheCorrupt) {
		t.Errorf("err = %v, want ErrCacheCorrupt", err)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("corrupt entry not deleted: stat err = %v", statErr)
	}
	if s := c.Stats(); s.Errors != 1 {
		t.Errorf("Errors = %d, want 1", s.Errors)
	}
	// A second Get is a clean miss: the bad entry is gone.
	if data, err := c.Get(key); err != nil || data != nil {
		t.Errorf("Get after deletion = (%q, %v), want (nil, nil)", data, err)
	}
}

func TestTruncatedEntryIsCorrupt(t *testing.T) {
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
	if _, err := c.Get(key); !errors.Is(err, errdefs.ErrCacheCorrupt) {
		t.Errorf("truncated entry err = %v, want ErrCacheCorrupt", err)
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
			val, _, err := c.Do(key, func() ([]byte, bool, error) {
				computes.Add(1)
				time.Sleep(10 * time.Millisecond) // widen the race window
				return []byte("value"), true, nil
			})
			if err != nil {
				t.Errorf("Do: %v", err)
			}
			results[i] = val
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

func TestDoErrorNotCached(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	boom := errors.New("boom")
	if _, _, err := c.Do(key, func() ([]byte, bool, error) { return nil, true, boom }); !errors.Is(err, boom) {
		t.Fatalf("Do error = %v, want boom", err)
	}
	// The failure was not persisted: the next Do computes again.
	val, hit, err := c.Do(key, func() ([]byte, bool, error) { return []byte("ok"), true, nil })
	if err != nil || hit || string(val) != "ok" {
		t.Errorf("Do after failure = (%q, %t, %v), want fresh ok", val, hit, err)
	}
}

func TestDoValueNotStored(t *testing.T) {
	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf([]byte("img"), "fp")
	for i := 0; i < 2; i++ {
		val, hit, err := c.Do(key, func() ([]byte, bool, error) { return []byte("degraded"), false, nil })
		if err != nil || hit || string(val) != "degraded" {
			t.Fatalf("Do %d = (%q, %t, %v), want computed degraded", i, val, hit, err)
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
	framed := len(encodeEntry(entry))
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

func TestEncodeDecodeFrame(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), []byte(fmt.Sprintf("%01000d", 7))} {
		got, err := decodeEntry(encodeEntry(payload))
		if err != nil {
			t.Fatalf("decode(encode(%q)): %v", payload, err)
		}
		if string(got) != string(payload) {
			t.Errorf("frame round trip = %q, want %q", got, payload)
		}
	}
	if _, err := decodeEntry([]byte("no newline at all")); err == nil {
		t.Error("headerless entry decoded")
	}
	if _, err := decodeEntry([]byte("wrongmagic abc\npayload")); err == nil {
		t.Error("bad magic decoded")
	}
}
