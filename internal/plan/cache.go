package plan

// Plan caching for the serving layer: optimising a query runs an
// exponential dynamic program (Algorithm 1), so a system answering the
// same patterns repeatedly — the production workload the ROADMAP targets —
// should pay for it once. Cache is a thread-safe LRU keyed by Key with
// hit/miss/size statistics, and it owns the whole lookup protocol
// (GetOrBuild): validity of a hit, single-flight on a miss, replacement
// of a rejected entry.

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// DefaultCacheCapacity is the plan-cache size used when callers pass a
// non-positive capacity to NewCache.
const DefaultCacheCapacity = 128

// Key identifies one cached plan: the query's canonical
// (relabelling-invariant) fingerprint, the logical-plan family, the
// deployment size the optimiser costs against, and the graph-statistics
// version the estimates were derived from (GraphStats.Fingerprint(), which
// includes the snapshot epoch).
type Key struct {
	QueryFP  string
	Family   string
	Machines int
	StatsFP  uint64
}

// Cache is a bounded, thread-safe LRU of optimised plans. The zero value
// is not usable; construct with NewCache.
type Cache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List // front = most recently used
	items    map[Key]*list.Element
	building map[Key]chan struct{} // in-flight builds; closed when the plan is stored
	misses   uint64
	// hits is atomic so that a warm lookup takes mu once: the hit is counted
	// after valid has accepted the entry, outside the lock.
	hits atomic.Uint64
}

type cacheEntry struct {
	key  Key
	plan *Plan
}

// NewCache creates a plan cache holding up to capacity plans
// (DefaultCacheCapacity if capacity <= 0).
func NewCache(capacity int) *Cache {
	if capacity <= 0 {
		capacity = DefaultCacheCapacity
	}
	return &Cache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[Key]*list.Element, capacity),
		building: make(map[Key]chan struct{}),
	}
}

// GetOrBuild is the single lookup protocol every plan request goes
// through. It returns the entry under key when valid accepts it (cached =
// true); otherwise it calls build, stores the result under key — replacing
// a rejected entry — and returns it. Builds are single-flight per key: of N
// concurrent cold requests one builds, counted as the one miss, and the
// others wait for it and then look again, so they hit unless valid rejects
// what was built. valid and build run outside the cache lock — both may be
// expensive — and valid must be a pure function of the plan.
//
// A caller rejects an entry when serving it would be wrong for that
// caller — e.g. it needs the exact vertex numbering and the entry is a
// relabelled twin. The replacement is built from the caller's query, so it
// satisfies every lookup the old entry could. An entry that replaced the
// rejected one while valid ran is validated in its turn, never overwritten
// unseen; one evicted while valid ran is still served if valid accepts it.
// A nil build result is returned but not stored.
func (c *Cache) GetOrBuild(key Key, valid func(*Plan) bool, build func() *Plan) (p *Plan, cached bool) {
	var rejected *Plan
	for {
		c.mu.Lock()
		if el, ok := c.items[key]; ok && el.Value.(*cacheEntry).plan != rejected {
			p = el.Value.(*cacheEntry).plan
			c.ll.MoveToFront(el)
			c.mu.Unlock()
			if valid(p) {
				c.hits.Add(1)
				return p, true
			}
			rejected = p
			continue
		}
		if done, ok := c.building[key]; ok {
			c.mu.Unlock()
			<-done
			continue
		}
		c.misses++
		done := make(chan struct{})
		c.building[key] = done
		c.mu.Unlock()
		return c.fly(key, done, build), false
	}
}

// fly runs one single-flight build and publishes its result. The cleanup
// is deferred so that a panicking build still releases the key: waiters
// wake, find nothing stored, and one of them builds in its turn.
func (c *Cache) fly(key Key, done chan struct{}, build func() *Plan) (p *Plan) {
	defer func() {
		c.mu.Lock()
		if p != nil {
			c.putLocked(key, p)
		}
		delete(c.building, key)
		c.mu.Unlock()
		close(done)
	}()
	return build()
}

// putLocked stores p under key, evicting the least recently used entry when
// the cache is full. Storing an existing key refreshes its recency and
// value.
func (c *Cache) putLocked(key Key, p *Plan) {
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).plan = p
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, plan: p})
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// InvalidateGraph drops every plan that was optimised against the given
// graph-statistics version (Key.StatsFP) and returns how many entries were
// evicted. The serving layer calls it after applying a graph delta: keys
// already make a stale hit impossible (the new epoch yields a new stats
// fingerprint), so this is garbage collection — without it a stream of
// updates would fill the LRU with dead plans and evict the live ones.
func (c *Cache) InvalidateGraph(statsFP uint64) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	evicted := 0
	for key, el := range c.items {
		if key.StatsFP == statsFP {
			c.ll.Remove(el)
			delete(c.items, key)
			evicted++
		}
	}
	return evicted
}

// Each calls fn for every cached entry, most recently used first, without
// touching recency or hit statistics. The cache lock is held for the whole
// walk — fn must be cheap and must not call back into the cache. The store
// layer uses it to capture which (query, family) pairs are worth
// re-optimising after recovery.
func (c *Cache) Each(fn func(key Key, p *Plan)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		fn(e.key, e.plan)
	}
}

// Stats returns cumulative hits and misses, and the current entry count.
func (c *Cache) Stats() (hits, misses uint64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits.Load(), c.misses, c.ll.Len()
}
