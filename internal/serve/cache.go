// Package serve is the heavy-traffic serving tier in front of the
// enrichment pipeline: an epoch-keyed enriched-result cache, per-endpoint
// request metrics, and admission control. The REST layer composes these
// around its handlers; none of them know about HTTP routing, so they are
// independently testable and reusable by other fronts (e.g. a future gRPC
// surface).
package serve

import "crosse/internal/lru"

// Key identifies one cached enriched result. Epochs make invalidation
// free: a mutation bumps the owning epoch, so stale entries become
// unreachable (and age out of the LRU) rather than being hunted down.
//
//   - ViewEpoch moves when the user's KB changes (kb.Platform.ViewEpoch:
//     Insert/Import/Retract, stored-query registration).
//   - SchemaEpoch moves on databank DDL (sqldb.Database.SchemaEpoch).
//   - Opts captures anything else that changes the answer for the same
//     text: execution options, stats/rank request flags.
type Key struct {
	User        string
	Query       string
	Lang        string // "sesql" | "sparql"
	Opts        string // canonical encoding of result-affecting options
	ViewEpoch   uint64
	SchemaEpoch uint64
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	MaxBytes  int64  `json:"max_bytes"`
	MaxEntrs  int    `json:"max_entries"`
}

// Cache is a bounded LRU over enriched results, keyed by Key: an lru.Cache
// bounding both entry count and total byte budget (callers report each
// entry's size); inserting past either bound evicts from the cold end. All
// methods are safe for concurrent use.
type Cache struct {
	lru        *lru.Cache[Key, sized]
	maxEntries int
	maxBytes   int64
}

// sized is one cached result and the bytes its caller charged for it.
type sized struct {
	value any
	size  int64
}

// NewCache builds a cache bounded by maxEntries and maxBytes. Zero (or
// negative) maxEntries defaults to 4096 entries; zero maxBytes defaults to
// 64 MiB. To disable caching, don't construct one — the REST layer treats
// a nil cache as cache-off.
func NewCache(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = 4096
	}
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &Cache{
		lru:        lru.New[Key](maxEntries, maxBytes, func(s sized) int64 { return s.size }),
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
	}
}

// Get returns the cached value for key, promoting it to hottest.
func (c *Cache) Get(key Key) (any, bool) {
	s, ok := c.lru.Get(key, nil)
	return s.value, ok
}

// Put inserts value under key, charging size bytes against the budget. An
// entry larger than the whole byte budget is refused (caching it would
// empty the cache for no reuse benefit).
func (c *Cache) Put(key Key, value any, size int64) {
	c.lru.Put(key, sized{value: value, size: size})
}

// Len returns the live entry count.
func (c *Cache) Len() int { return c.lru.Len() }

// Stats snapshots the cache counters.
func (c *Cache) Stats() CacheStats {
	st := c.lru.Stats()
	return CacheStats{
		Hits:      st.Hits,
		Misses:    st.Misses,
		Evictions: st.Evictions,
		Entries:   st.Entries,
		Bytes:     st.Size,
		MaxBytes:  c.maxBytes,
		MaxEntrs:  c.maxEntries,
	}
}
