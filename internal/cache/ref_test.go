package cache

import "repro/internal/graph"

// refLRBU is Algorithm 3 written the direct way — a map plus an ordered
// Ŝ_free kept as an intrusive doubly-linked list — and the oracle the
// table's eviction order is checked against. Orders are assigned
// monotonically, so "insert with the largest order" is an append at the
// tail and "pop smallest" removes the head.
type refLRBU struct {
	m         map[graph.VertexID]*refEntry
	freeHead  *refEntry
	freeTail  *refEntry
	sealed    []*refEntry
	capacity  uint64
	sizeBytes uint64
}

type refEntry struct {
	vid        graph.VertexID
	nbrs       []graph.VertexID
	prev, next *refEntry // free-list links; nil/nil when sealed
	inFree     bool
	sealed     bool
}

func newRefLRBU(capacityBytes uint64) *refLRBU {
	return &refLRBU{m: map[graph.VertexID]*refEntry{}, capacity: capacityBytes}
}

func (c *refLRBU) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	e, ok := c.m[v]
	if !ok {
		return nil, false
	}
	return e.nbrs, true
}

func (c *refLRBU) Contains(v graph.VertexID) bool {
	_, ok := c.m[v]
	return ok
}

func (c *refLRBU) Insert(v graph.VertexID, nbrs []graph.VertexID) {
	if e, ok := c.m[v]; ok {
		c.seal(e)
		return
	}
	need := entryBytes(nbrs)
	for c.sizeBytes+need > c.capacity && c.freeHead != nil {
		e := c.freeHead
		c.freeHead = e.next
		if c.freeHead != nil {
			c.freeHead.prev = nil
		} else {
			c.freeTail = nil
		}
		delete(c.m, e.vid)
		c.sizeBytes -= entryBytes(e.nbrs)
	}
	e := &refEntry{vid: v, nbrs: nbrs, sealed: true}
	c.m[v] = e
	c.sizeBytes += need
	c.sealed = append(c.sealed, e)
}

func (c *refLRBU) Seal(v graph.VertexID) {
	if e, ok := c.m[v]; ok {
		c.seal(e)
	}
}

func (c *refLRBU) seal(e *refEntry) {
	if e.sealed {
		return
	}
	if e.inFree {
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

func (c *refLRBU) Release() {
	for _, e := range c.sealed {
		e.sealed = false
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

func (c *refLRBU) Len() int          { return len(c.m) }
func (c *refLRBU) SizeBytes() uint64 { return c.sizeBytes }
