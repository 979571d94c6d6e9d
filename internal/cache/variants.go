package cache

import (
	"sync"

	"repro/internal/graph"
)

// lru is a classic move-to-front LRU. With capacity 0 it is unbounded
// (the LRU-Inf variant of Exp-6). Reads mutate recency — the design flaw
// the paper's LRBU exists to avoid — so when used bare (LRU-Inf) the
// recency list carries its own mutex: the engine's intersect stage issues
// Gets from all workers at once, and an unguarded move-to-front would
// corrupt the list. Paying a lock (and a copy) on every read is precisely
// the measured cost of this ablation. The Cncr-LRU variant is instead
// wrapped whole in lockedCache, so it constructs with selfLocking=false to
// avoid double-locking (which would skew the Exp-6 comparison).
// Insert-vs-read exclusion for the bare variant is still the caller's job:
// the two-stage engine inserts only in the fetch stage.
//
// Want and Fill dedup a batch as the LRBU table does: an entry carries the
// batch that last wanted it, and a Miss reserves an entry, unlinked from
// the recency list until Fill.
type lru struct {
	mu          sync.Mutex // guards the recency list and eviction (if selfLocking)
	selfLocking bool
	m           map[graph.VertexID]*lruEntry
	head, tail  *lruEntry // head = most recent
	capacity    uint64
	sizeBytes   uint64
	now         uint32      // the current batch's stamp
	reserved    []*lruEntry // this batch's Misses, by reference
}

// lruEntry is one cached adjacency list plus its recency links.
type lruEntry struct {
	vid        graph.VertexID
	stamp      uint32
	nbrs       []graph.VertexID // nil while reserved
	prev, next *lruEntry
}

func newLRU(capacityBytes uint64, selfLocking bool) *lru {
	return &lru{m: make(map[graph.VertexID]*lruEntry), capacity: capacityBytes, selfLocking: selfLocking, now: 1}
}

func (c *lru) lock() {
	if c.selfLocking {
		c.mu.Lock()
	}
}

func (c *lru) unlock() {
	if c.selfLocking {
		c.mu.Unlock()
	}
}

func (c *lru) touch(e *lruEntry) {
	if c.head == e {
		return
	}
	// Unlink.
	if e.prev != nil {
		e.prev.next = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	}
	if c.tail == e {
		c.tail = e.prev
	}
	// Link at head.
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *lru) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	e, ok := c.m[v]
	if !ok || e.nbrs == nil {
		return nil, false
	}
	c.lock()
	c.touch(e)
	c.unlock()
	// LRU variants always copy: entries can be evicted at any access, so
	// zero-copy references would dangle (the paper's "memory copies" cost).
	cp := make([]graph.VertexID, len(e.nbrs))
	copy(cp, e.nbrs)
	return cp, true
}

func (c *lru) Contains(v graph.VertexID) bool {
	e, ok := c.m[v]
	return ok && e.nbrs != nil
}

func (c *lru) Insert(v graph.VertexID, nbrs []graph.VertexID) {
	if e, ok := c.m[v]; ok {
		c.lock()
		c.touch(e)
		c.unlock()
		return
	}
	e := &lruEntry{vid: v}
	c.m[v] = e
	c.fill(e, nbrs)
}

func (c *lru) Want(v graph.VertexID) (Status, int32) {
	if e, ok := c.m[v]; ok {
		if e.stamp == c.now {
			return Duplicate, 0
		}
		e.stamp = c.now
		c.lock()
		c.touch(e)
		c.unlock()
		return Hit, 0
	}
	e := &lruEntry{vid: v, stamp: c.now}
	c.m[v] = e
	c.reserved = append(c.reserved, e)
	return Miss, int32(len(c.reserved) - 1)
}

func (c *lru) Fill(ref int32, nbrs []graph.VertexID) { c.fill(c.reserved[ref], nbrs) }

// fill gives e its list and links it as the most recent entry, evicting
// from the tail while over a bounded capacity.
func (c *lru) fill(e *lruEntry, nbrs []graph.VertexID) {
	if nbrs == nil {
		nbrs = noNbrs
	}
	c.lock()
	defer c.unlock()
	need := entryBytes(nbrs)
	if c.capacity > 0 {
		for c.sizeBytes+need > c.capacity && c.tail != nil {
			t := c.tail
			c.tail = t.prev
			if c.tail != nil {
				c.tail.next = nil
			} else {
				c.head = nil
			}
			delete(c.m, t.vid)
			c.sizeBytes -= entryBytes(t.nbrs)
		}
	}
	e.nbrs = nbrs
	c.sizeBytes += need
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// LRU has no batch pinning: Seal does nothing, and Release only starts the
// next batch, dropping any Miss nobody filled.
func (c *lru) Seal(graph.VertexID) {}

func (c *lru) Release() {
	for _, e := range c.reserved {
		if e.nbrs == nil {
			delete(c.m, e.vid)
		}
	}
	c.reserved = c.reserved[:0]
	c.now++
}

func (c *lru) Len() int          { return len(c.m) }
func (c *lru) SizeBytes() uint64 { return c.sizeBytes }

// lockedCache serialises every operation with a mutex — the LRBU-Lock and
// Cncr-LRU variants of Exp-6.
type lockedCache struct {
	mu    sync.Mutex
	inner Cache
}

func (c *lockedCache) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Get(v)
}

func (c *lockedCache) Contains(v graph.VertexID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Contains(v)
}

func (c *lockedCache) Insert(v graph.VertexID, nbrs []graph.VertexID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner.Insert(v, nbrs)
}

func (c *lockedCache) Want(v graph.VertexID) (Status, int32) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Want(v)
}

func (c *lockedCache) Fill(ref int32, nbrs []graph.VertexID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner.Fill(ref, nbrs)
}

func (c *lockedCache) Seal(v graph.VertexID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner.Seal(v)
}

func (c *lockedCache) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.inner.Release()
}

func (c *lockedCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.Len()
}

func (c *lockedCache) SizeBytes() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.inner.SizeBytes()
}
