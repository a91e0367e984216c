package engine

import (
	"container/list"
	"slices"
	"strings"
	"sync"
)

// Cache is a size-capped memoizing cache with per-key singleflight:
// concurrent lookups of the same key run the build function once and
// share its result. Sweeps use it to reuse instrumented modules,
// canonicalized CFGs and baseline runs across cells instead of
// re-running analysis per cell.
//
// Build errors are not cached: a failed entry is removed so a later
// lookup retries (deterministic failures simply fail again, cheaply).
type Cache struct {
	// Observer, when non-nil, is told about every lookup (hit or miss).
	// It is invoked outside the cache lock; set it before concurrent
	// use (AttachObs does).
	Observer func(key string, hit bool)

	mu      sync.Mutex
	cap     int
	entries map[string]*cacheEntry
	lru     *list.List // front = most recently used; completed entries only

	hits, misses, evictions int64
}

type cacheEntry struct {
	key   string
	val   any
	err   error
	ready chan struct{} // closed when val/err are final
	elem  *list.Element // nil while the build is in flight
}

// DefaultCacheCap bounds the cache when the caller does not choose a
// size. The full evaluation needs ~(28 workloads × 8 design configs)
// module entries plus baselines; 512 holds everything the paper's
// sweeps touch while still exercising eviction on synthetic floods.
const DefaultCacheCap = 512

// NewCache returns a cache holding at most cap entries (cap <= 0 means
// unbounded).
func NewCache(cap int) *Cache {
	return &Cache{
		cap:     cap,
		entries: make(map[string]*cacheEntry),
		lru:     list.New(),
	}
}

// Get returns the cached value for key, building and inserting it with
// build on a miss. Concurrent callers for the same key share one build.
func (c *Cache) Get(key string, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.hits++
		if e.elem != nil {
			c.lru.MoveToFront(e.elem)
		}
		c.mu.Unlock()
		if c.Observer != nil {
			c.Observer(key, true)
		}
		<-e.ready
		return e.val, e.err
	}
	e := &cacheEntry{key: key, ready: make(chan struct{})}
	c.entries[key] = e
	c.misses++
	c.mu.Unlock()
	if c.Observer != nil {
		c.Observer(key, false)
	}

	e.val, e.err = build()
	close(e.ready)

	c.mu.Lock()
	if e.err != nil {
		// Do not cache failures; let a later lookup retry.
		if c.entries[key] == e {
			delete(c.entries, key)
		}
	} else {
		e.elem = c.lru.PushFront(e)
		for c.cap > 0 && c.lru.Len() > c.cap {
			oldest := c.lru.Back()
			victim := oldest.Value.(*cacheEntry)
			c.lru.Remove(oldest)
			delete(c.entries, victim.key)
			c.evictions++
		}
	}
	c.mu.Unlock()
	return e.val, e.err
}

// Len reports the number of completed entries resident in the cache.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}

// CacheStats is a point-in-time snapshot of cache accounting.
type CacheStats struct {
	Hits, Misses, Evictions int64
}

// Stats returns the cache's hit/miss/eviction counters.
func (c *Cache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{Hits: c.hits, Misses: c.misses, Evictions: c.evictions}
}

// Range calls fn for every completed entry, in key order. It snapshots
// the entries under the lock and invokes fn outside it, so fn may use
// the cache.
func (c *Cache) Range(fn func(key string, val any)) {
	c.mu.Lock()
	snapshot := make([]*cacheEntry, 0, len(c.entries))
	for _, e := range c.entries {
		if e.elem != nil {
			snapshot = append(snapshot, e)
		}
	}
	c.mu.Unlock()
	slices.SortFunc(snapshot, func(a, b *cacheEntry) int { return strings.Compare(a.key, b.key) })
	for _, e := range snapshot {
		fn(e.key, e.val)
	}
}
