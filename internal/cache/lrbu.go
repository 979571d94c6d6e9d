// Package cache implements the paper's LRBU (least-recent-batch used)
// cache (Section 4.4, Algorithm 3) together with the ablation variants
// evaluated in Exp-6 (Table 5): LRBU with forced memory copies, LRBU with
// locking, an unbounded LRU, and a concurrent LRU that skips the two-stage
// execution strategy.
//
// Contract for LRBU (mirroring the paper's lock-free design): Get and
// Contains are read-only; Insert, Seal and Release mutate and must be
// called by a single writer goroutine while no readers are active. The
// engine's two-stage PULL-EXTEND guarantees this: all writes happen in the
// fetch stage (one writer), all Gets happen in the intersect stage (many
// readers, no writer), with a barrier between the stages establishing the
// happens-before edge.
package cache

import (
	"repro/internal/graph"
)

// Cache is the interface the PULL-EXTEND operator uses.
type Cache interface {
	// Get returns the cached adjacency of v. For the zero-copy variants the
	// returned slice aliases cache storage and is only valid until the next
	// mutation (i.e. within the current intersect stage).
	Get(v graph.VertexID) ([]graph.VertexID, bool)
	// Contains reports presence without touching recency state (except in
	// LRU variants, where it may).
	Contains(v graph.VertexID) bool
	// Insert stores the adjacency of v, evicting replaceable entries when
	// over capacity. The entry starts sealed (in use by the current batch).
	Insert(v graph.VertexID, nbrs []graph.VertexID)
	// Seal pins v so it cannot be evicted during the current batch.
	Seal(v graph.VertexID)
	// Release unpins every sealed entry, giving them the freshest order
	// (they belonged to the most recent batch).
	Release()
	// Len returns the number of cached entries.
	Len() int
	// SizeBytes returns the approximate heap footprint of cached values.
	SizeBytes() uint64
}

// Kind selects a cache implementation.
type Kind int

const (
	LRBU Kind = iota // the paper's design: lock-free reads, zero-copy
	LRBUCopy
	LRBULock
	LRUInf
	CncrLRU
)

func (k Kind) String() string {
	switch k {
	case LRBU:
		return "LRBU"
	case LRBUCopy:
		return "LRBU-Copy"
	case LRBULock:
		return "LRBU-Lock"
	case LRUInf:
		return "LRU-Inf"
	case CncrLRU:
		return "Cncr-LRU"
	}
	return "unknown"
}

// TwoStage reports whether the engine should run the two-stage fetch/
// intersect strategy with this cache kind. Cncr-LRU deliberately disables
// it (the Exp-6 ablation): workers then fetch on demand during intersection
// under a lock.
func (k Kind) TwoStage() bool { return k != CncrLRU }

// New constructs a cache of the given kind with a capacity budget in bytes
// (ignored by LRUInf).
func New(k Kind, capacityBytes uint64) Cache {
	switch k {
	case LRBU:
		return newLRBU(capacityBytes, false)
	case LRBUCopy:
		return newLRBU(capacityBytes, true)
	case LRBULock:
		return &lockedCache{inner: newLRBU(capacityBytes, true)}
	case LRUInf:
		return newLRU(0, true) // concurrent intersect reads: self-locking recency
	case CncrLRU:
		return &lockedCache{inner: newLRU(capacityBytes, false)} // outer lock suffices
	}
	panic("cache: unknown kind")
}

// entry is one cached adjacency list plus its intrusive free-list links.
type entry struct {
	vid        graph.VertexID
	nbrs       []graph.VertexID
	prev, next *entry // free-list links; nil/nil when sealed
	inFree     bool
	sealed     bool
}

// lrbu implements Algorithm 3. The ordered set Ŝ_free is an intrusive
// doubly-linked list: orders are assigned monotonically, so "insert with
// the largest order" is an append at the tail and "pop smallest" removes
// the head — giving O(1) for every operation.
type lrbu struct {
	m         map[graph.VertexID]*entry
	freeHead  *entry
	freeTail  *entry
	sealed    []*entry
	capacity  uint64
	sizeBytes uint64
	copyOnGet bool

	// Entries come from slabs and evicted ones are reused through spare
	// (linked by next), so a run that pulls many vertices allocates one
	// object per slab rather than one per entry.
	slab   []entry
	spare  *entry
	issued int // entries taken from slabs so far: the next slab's size
}

// maxSlab caps the entries of one slab; slabs start small and double up to
// it, so a run that caches a handful of vertices allocates a handful.
const maxSlab = 256

func newLRBU(capacityBytes uint64, copyOnGet bool) *lrbu {
	return &lrbu{m: make(map[graph.VertexID]*entry), capacity: capacityBytes, copyOnGet: copyOnGet}
}

func entryBytes(nbrs []graph.VertexID) uint64 { return uint64(len(nbrs))*4 + 48 }

func (c *lrbu) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	e, ok := c.m[v]
	if !ok {
		return nil, false
	}
	if c.copyOnGet {
		cp := make([]graph.VertexID, len(e.nbrs))
		copy(cp, e.nbrs)
		return cp, true
	}
	return e.nbrs, true
}

func (c *lrbu) Contains(v graph.VertexID) bool {
	_, ok := c.m[v]
	return ok
}

func (c *lrbu) Insert(v graph.VertexID, nbrs []graph.VertexID) {
	if e, ok := c.m[v]; ok {
		// Already present (possible when a steal re-fetches): just seal.
		c.seal(e)
		return
	}
	need := entryBytes(nbrs)
	for c.sizeBytes+need > c.capacity && c.freeHead != nil {
		c.evictHead()
	}
	// If Ŝ_free is empty the insert proceeds regardless of capacity; the
	// overflow is bounded by the remote vertices of one batch (Section 4.4).
	e := c.newEntry()
	*e = entry{vid: v, nbrs: nbrs, sealed: true}
	c.m[v] = e
	c.sizeBytes += need
	c.sealed = append(c.sealed, e)
}

func (c *lrbu) evictHead() {
	e := c.freeHead
	c.freeHead = e.next
	if c.freeHead != nil {
		c.freeHead.prev = nil
	} else {
		c.freeTail = nil
	}
	delete(c.m, e.vid)
	c.sizeBytes -= entryBytes(e.nbrs)
	*e = entry{next: c.spare}
	c.spare = e
}

// newEntry returns an evicted entry, else the next one of the current slab.
func (c *lrbu) newEntry() *entry {
	if e := c.spare; e != nil {
		c.spare = e.next
		return e
	}
	if len(c.slab) == 0 {
		c.slab = make([]entry, min(max(c.issued, 16), maxSlab))
	}
	e := &c.slab[0]
	c.slab = c.slab[1:]
	c.issued++
	return e
}

func (c *lrbu) Seal(v graph.VertexID) {
	if e, ok := c.m[v]; ok {
		c.seal(e)
	}
}

func (c *lrbu) seal(e *entry) {
	if e.sealed {
		return
	}
	if e.inFree {
		// Unlink from the free list.
		if e.prev != nil {
			e.prev.next = e.next
		} else {
			c.freeHead = e.next
		}
		if e.next != nil {
			e.next.prev = e.prev
		} else {
			c.freeTail = e.prev
		}
		e.prev, e.next, e.inFree = nil, nil, false
	}
	e.sealed = true
	c.sealed = append(c.sealed, e)
}

func (c *lrbu) Release() {
	for _, e := range c.sealed {
		if !e.sealed {
			continue
		}
		e.sealed = false
		// Append at the tail: the largest order (least evictable).
		e.prev = c.freeTail
		e.next = nil
		e.inFree = true
		if c.freeTail != nil {
			c.freeTail.next = e
		} else {
			c.freeHead = e
		}
		c.freeTail = e
	}
	c.sealed = c.sealed[:0]
}

func (c *lrbu) Len() int          { return len(c.m) }
func (c *lrbu) SizeBytes() uint64 { return c.sizeBytes }
