// Package lru is the one bounded cache the system uses: the serving tier's
// enriched-result cache, the compiled-plan caches and the context-extract
// memo are all instances of Cache. It bounds the entry count and,
// optionally, the total size reported by a size function; inserting past
// either bound evicts from the cold end. Validity that depends on a moving
// epoch is checked by the caller at hit time (Get's valid function), so a
// stale entry never answers and is replaced by the next Put for its key or
// ages out — nothing ever sweeps the map.
package lru

import (
	"sync"
	"sync/atomic"
)

// Cache is a bounded LRU map safe for concurrent use.
type Cache[K comparable, V any] struct {
	maxEntries int
	maxSize    int64
	size       func(V) int64 // nil: entries are unsized and only counted

	mu    sync.Mutex
	items map[K]*entry[K, V]
	head  entry[K, V] // sentinel: head.next is hottest, head.prev coldest
	bytes int64

	hits, misses, evictions atomic.Uint64
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	size       int64
	prev, next *entry[K, V]
}

// New returns a cache holding at most maxEntries entries. When size is
// non-nil, entries are also charged size(v) against maxSize: an entry
// larger than maxSize on its own is refused.
func New[K comparable, V any](maxEntries int, maxSize int64, size func(V) int64) *Cache[K, V] {
	c := &Cache[K, V]{maxEntries: maxEntries, maxSize: maxSize, size: size, items: make(map[K]*entry[K, V])}
	c.head.next, c.head.prev = &c.head, &c.head
	return c
}

// Get returns the value under key, promoting it to hottest, when valid
// accepts it (a nil valid accepts every value). A rejected entry counts as
// a miss and stays where it is until replaced or evicted.
func (c *Cache[K, V]) Get(key K, valid func(V) bool) (V, bool) {
	c.mu.Lock()
	e, ok := c.items[key]
	if ok && (valid == nil || valid(e.val)) {
		c.unlink(e)
		c.pushFront(e)
		v := e.val
		c.mu.Unlock()
		c.hits.Add(1)
		return v, true
	}
	c.mu.Unlock()
	c.misses.Add(1)
	var zero V
	return zero, false
}

// Put inserts or replaces the value under key as the hottest entry, then
// evicts from the cold end until both bounds hold.
func (c *Cache[K, V]) Put(key K, val V) {
	var n int64
	if c.size != nil {
		if n = c.size(val); n < 0 {
			n = 0
		}
		if n > c.maxSize {
			return
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.items[key]; ok {
		c.bytes += n - e.size
		e.val, e.size = val, n
		c.unlink(e)
		c.pushFront(e)
	} else {
		e := &entry[K, V]{key: key, val: val, size: n}
		c.items[key] = e
		c.pushFront(e)
		c.bytes += n
	}
	for len(c.items) > c.maxEntries || (c.size != nil && c.bytes > c.maxSize) {
		old := c.head.prev
		c.unlink(old)
		delete(c.items, old.key)
		c.bytes -= old.size
		c.evictions.Add(1)
	}
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	e.prev.next, e.next.prev = e.next, e.prev
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev, e.next = &c.head, c.head.next
	c.head.next.prev = e
	c.head.next = e
}

// Stats is a point-in-time snapshot of a cache's counters and occupancy.
type Stats struct {
	Hits, Misses, Evictions uint64
	Entries                 int
	Size                    int64 // total charged size; 0 for unsized caches
}

// Stats snapshots the counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	n, size := len(c.items), c.bytes
	c.mu.Unlock()
	return Stats{Hits: c.hits.Load(), Misses: c.misses.Load(), Evictions: c.evictions.Load(), Entries: n, Size: size}
}

// Len returns the live entry count.
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
