package cache

import (
	"cmp"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// index is the process's record of one capped cache directory: the size
// of every entry, in recency order, so eviction pops the least recently
// used entry instead of listing and sorting the directory on every Put.
// Every capped handle the process opens on the directory shares it, so a
// sweep run as a loop of batch calls, each with a handle of its own,
// keeps one index.
//
// The first capped Put builds it with one listing, in mtime order. This
// process's puts, verified hits and deletions keep it current. Entries
// that other processes, or uncapped handles, write behind its back are
// counted at the next listing, which comes once the process has put
// MaxBytes since the last one, or when an eviction finds its victim
// already gone. So the directory may exceed the cap by what others wrote
// since the last listing; a Put costs amortized O(1).
type index struct {
	dir string

	mu      sync.Mutex
	listed  bool // false until the first listing, and after Clear
	entries map[string]*lruEntry
	lru     lruEntry // sentinel: lru.next is the least recently used entry
	total   int64    // the bytes of every entry in the index
	written int64    // the bytes put since the last listing
}

// lruEntry is one entry of an index, linked in recency order.
type lruEntry struct {
	key        string
	size       int64
	prev, next *lruEntry
}

// indexes holds the process's index of every capped directory, by
// absolute path, for the life of the process.
var indexes = struct {
	mu sync.Mutex
	m  map[string]*index
}{m: map[string]*index{}}

// indexFor returns the process's index of dir, making an empty one on
// first use.
func indexFor(dir string) *index {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	indexes.mu.Lock()
	defer indexes.mu.Unlock()
	x := indexes.m[dir]
	if x == nil {
		x = &index{dir: dir, entries: map[string]*lruEntry{}}
		x.lru.prev, x.lru.next = &x.lru, &x.lru
		indexes.m[dir] = x
	}
	return x
}

// put records a size-byte entry just written under key, then evicts least
// recently used entries until the index fits maxBytes, and returns how
// many it evicted. The first put, and the first once maxBytes have been
// put since the last listing, lists the directory instead.
func (x *index) put(key string, size, maxBytes int64) (evicted int64) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.written += size
	if !x.listed || x.written >= maxBytes {
		x.list()
	} else {
		x.add(key, size)
	}
	relisted := false
	for x.total > maxBytes && x.lru.next != &x.lru {
		e := x.lru.next
		x.drop(e)
		switch err := os.Remove(filepath.Join(x.dir, e.key+entryExt)); {
		case err == nil:
			evicted++
		case errors.Is(err, fs.ErrNotExist) && !relisted:
			// Someone else removed it: the index is stale, so count again.
			relisted = true
			x.list()
		}
	}
	return evicted
}

// touch makes key's entry the most recently used, if the index holds it.
func (x *index) touch(key string) {
	x.mu.Lock()
	if e := x.entries[key]; e != nil {
		x.unlink(e)
		x.pushBack(e)
	}
	x.mu.Unlock()
}

// remove forgets key's entry, deleted from the directory.
func (x *index) remove(key string) {
	x.mu.Lock()
	if e := x.entries[key]; e != nil {
		x.drop(e)
	}
	x.mu.Unlock()
}

// reset forgets every entry: the next put lists the directory again.
func (x *index) reset() {
	x.mu.Lock()
	x.forget()
	x.mu.Unlock()
}

// list rebuilds the index from a listing of the directory, least recently
// modified first, ties broken by key. A failed listing leaves the index
// empty and unlisted, so nothing is evicted and the next put tries again.
func (x *index) list() {
	x.forget()
	ents, err := listEntries(x.dir)
	if err != nil {
		return
	}
	slices.SortFunc(ents, func(a, b entryInfo) int {
		return cmp.Or(cmp.Compare(a.mtime, b.mtime), cmp.Compare(a.key, b.key))
	})
	for _, e := range ents {
		x.add(e.key, e.size)
	}
	x.listed = true
}

func (x *index) forget() {
	clear(x.entries)
	x.lru.prev, x.lru.next = &x.lru, &x.lru
	x.total, x.written, x.listed = 0, 0, false
}

// add records key's entry as the most recently used, replacing the entry
// it had.
func (x *index) add(key string, size int64) {
	e := x.entries[key]
	if e == nil {
		e = &lruEntry{key: key}
		x.entries[key] = e
	} else {
		x.unlink(e)
		x.total -= e.size
	}
	e.size = size
	x.total += size
	x.pushBack(e)
}

func (x *index) drop(e *lruEntry) {
	x.unlink(e)
	delete(x.entries, e.key)
	x.total -= e.size
}

func (x *index) unlink(e *lruEntry) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (x *index) pushBack(e *lruEntry) {
	e.prev, e.next = x.lru.prev, &x.lru
	x.lru.prev.next = e
	x.lru.prev = e
}
