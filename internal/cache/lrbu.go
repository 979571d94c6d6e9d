// Package cache implements the paper's LRBU (least-recent-batch used)
// cache (Section 4.4, Algorithm 3) together with the ablation variants
// evaluated in Exp-6 (Table 5): LRBU with forced memory copies, LRBU with
// locking, an unbounded LRU, and a concurrent LRU that skips the two-stage
// execution strategy.
//
// LRBU is one open-addressed vertex → entry table per machine. It also
// dedups a batch's remote vertices: Want probes once and says whether v is
// a duplicate of this batch, a hit (which seals it) or a miss (a reserved
// entry that Fill completes after the RPC). Tables are pooled: Free hands
// one back, cleared, and the next New takes it with its arrays grown.
//
// Contract for LRBU (mirroring the paper's lock-free design): Get and
// Contains are read-only; Want, Fill, Insert, Seal and Release mutate and
// must be called by a single writer goroutine while no readers are active.
// The engine's two-stage PULL-EXTEND guarantees this: all writes happen in
// the fetch stage (one writer), all Gets happen in the intersect stage
// (many readers, no writer), with a barrier between the stages
// establishing the happens-before edge.
package cache

import (
	"math/bits"
	"slices"
	"sync"

	"repro/internal/graph"
)

// Cache is the interface the PULL-EXTEND operator uses.
type Cache interface {
	// Get returns the cached adjacency of v. For the zero-copy variants the
	// returned slice aliases cache storage and is only valid until the next
	// mutation (i.e. within the current intersect stage).
	Get(v graph.VertexID) ([]graph.VertexID, bool)
	// Want is the fetch stage's one probe for a remote vertex v of the
	// current batch: Duplicate if the batch already wanted v, Hit if v was
	// cached (it is sealed now), Miss if not — the returned reference then
	// names the entry reserved for v, which Fill completes.
	Want(v graph.VertexID) (Status, int32)
	// Fill stores the pulled adjacency of a Miss's entry, evicting
	// replaceable entries when over capacity.
	Fill(ref int32, nbrs []graph.VertexID)
	// Release unpins every entry the batch sealed or filled, giving them
	// the freshest order (they belonged to the most recent batch).
	Release()
	// Len returns the number of cached entries.
	Len() int
	// SizeBytes returns the approximate heap footprint of cached values.
	SizeBytes() uint64

	// Contains, Seal and Insert are the fetch stage's older protocol, kept
	// for the tracked benchmark's cache probe (bench/layers.go), which
	// calls them: Contains reports presence (LRU variants may touch
	// recency), Seal pins a cached v for the current batch, and Insert is
	// Want plus Fill in one step.
	Contains(v graph.VertexID) bool
	Seal(v graph.VertexID)
	Insert(v graph.VertexID, nbrs []graph.VertexID)
}

// Status is what Want found.
type Status uint8

const (
	Duplicate Status = iota // wanted before in this batch
	Hit                     // cached by an earlier batch, sealed now
	Miss                    // not cached: pull it and Fill the reference
)

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
// (ignored by LRUInf). The LRBU kinds take a pooled table (see Free).
func New(k Kind, capacityBytes uint64) Cache {
	switch k {
	case LRBU:
		return newTable(capacityBytes, false)
	case LRBUCopy:
		return newTable(capacityBytes, true)
	case LRBULock:
		return &lockedCache{inner: newTable(capacityBytes, true)}
	case LRUInf:
		return newLRU(0, true) // concurrent intersect reads: self-locking recency
	case CncrLRU:
		return &lockedCache{inner: newLRU(capacityBytes, false)} // outer lock suffices
	}
	panic("cache: unknown kind")
}

// Free hands c back for a later New to reuse, once no Get of it is in
// flight; c must not be used after. An LRBU table is cleared first — its
// index zeroed and every list dropped, so a pooled table pins no graph —
// and keeps its arrays. Other kinds are left to the collector.
func Free(c Cache) {
	switch c := c.(type) {
	case *table:
		c.clear()
		tables.Put(c)
	case *lockedCache:
		Free(c.inner)
	}
}

var tables = sync.Pool{New: func() any { return new(table) }}

func entryBytes(nbrs []graph.VertexID) uint64 { return uint64(len(nbrs))*4 + 48 }

// noNbrs is the list of a filled entry whose vertex has no neighbours: a
// nil list marks a reserved entry that no Fill has completed yet.
var noNbrs = []graph.VertexID{}

// table implements Algorithm 3. Every cached vertex has an entry in a
// dense slice, so entry indices stay put while index slots move; the
// index is linear-probing over {vertex, entry+1} slots (0 is empty) with a
// multiplicative hash and backward-shift deletion.
//
// An entry's stamp is the batch that last wanted it: stamped with the
// current batch it is sealed, any older stamp leaves it in Ŝ_free. Every
// stamp appends an (entry, stamp) pair to the ring, so the ring holds
// Ŝ_free in Algorithm 3's order — batch by batch, oldest first — followed
// by the current batch's pairs. Eviction pops the ring's head and skips a
// pair whose entry was stamped again since (lazy deletion); Release only
// starts the next batch.
type table struct {
	index   []slot
	shift   uint // 32 − log2(len(index))
	entries []entry
	free    []int32 // entries evicted and not yet reused
	ring    []pair
	head    int    // ring[head:] are the pairs not yet popped
	now     uint32 // the current batch's stamp; 0 marks a free entry

	reserved  int // Misses not yet filled
	capacity  uint64
	sizeBytes uint64
	copyOnGet bool
}

type slot struct {
	v graph.VertexID
	e int32 // entry index + 1; 0 is an empty slot
}

type entry struct {
	v     graph.VertexID
	stamp uint32
	nbrs  []graph.VertexID // nil while reserved
}

type pair struct {
	e     int32
	stamp uint32
}

// minIndex is a fresh table's slot count.
const minIndex = 256

func newTable(capacityBytes uint64, copyOnGet bool) *table {
	t := tables.Get().(*table)
	t.capacity, t.copyOnGet = capacityBytes, copyOnGet
	if t.index == nil {
		t.index = make([]slot, minIndex)
		t.shift = 32 - uint(bits.TrailingZeros(minIndex))
	}
	t.now = 1
	return t
}

// clear empties t for the pool, keeping its arrays' capacity.
func (t *table) clear() {
	clear(t.index)
	clear(t.entries)
	t.entries, t.free, t.ring = t.entries[:0], t.free[:0], t.ring[:0]
	t.head, t.reserved, t.sizeBytes = 0, 0, 0
}

func (t *table) home(v graph.VertexID) uint32 { return (v * 0x9E3779B1) >> t.shift }

// find returns v's slot and entry.
func (t *table) find(v graph.VertexID) (i uint32, e int32, ok bool) {
	mask := uint32(len(t.index) - 1)
	for i = t.home(v); ; i = (i + 1) & mask {
		s := t.index[i]
		if s.e == 0 {
			return i, 0, false
		}
		if s.v == v {
			return i, s.e - 1, true
		}
	}
}

func (t *table) Get(v graph.VertexID) ([]graph.VertexID, bool) {
	_, e, ok := t.find(v)
	if !ok || t.entries[e].nbrs == nil {
		return nil, false
	}
	nbrs := t.entries[e].nbrs
	if t.copyOnGet {
		return slices.Clone(nbrs), true
	}
	return nbrs, true
}

func (t *table) Want(v graph.VertexID) (Status, int32) {
	i, e, ok := t.find(v)
	if ok {
		en := &t.entries[e]
		if en.stamp == t.now {
			return Duplicate, e
		}
		en.stamp = t.now
		t.ring = append(t.ring, pair{e, t.now})
		return Hit, e
	}
	if 2*(len(t.entries)-len(t.free)+1) > len(t.index) {
		t.grow()
		i, _, _ = t.find(v)
	}
	if n := len(t.free); n > 0 {
		e = t.free[n-1]
		t.free = t.free[:n-1]
		t.entries[e] = entry{v: v, stamp: t.now}
	} else {
		e = int32(len(t.entries))
		t.entries = append(t.entries, entry{v: v, stamp: t.now})
	}
	t.index[i] = slot{v, e + 1}
	t.ring = append(t.ring, pair{e, t.now})
	t.reserved++
	return Miss, e
}

func (t *table) Fill(e int32, nbrs []graph.VertexID) {
	if nbrs == nil {
		nbrs = noNbrs
	}
	need := entryBytes(nbrs)
	for t.sizeBytes+need > t.capacity && t.head < len(t.ring) {
		p := t.ring[t.head]
		if p.stamp == t.now {
			// The rest is the current batch, sealed: when Ŝ_free is empty
			// the fill proceeds regardless of capacity; the overflow is
			// bounded by the remote vertices of one batch (Section 4.4).
			break
		}
		t.head++
		if t.entries[p.e].stamp == p.stamp {
			t.evict(p.e)
		}
	}
	t.entries[e].nbrs = nbrs
	t.sizeBytes += need
	t.reserved--
}

// evict removes entry e from the index and frees it.
func (t *table) evict(e int32) {
	en := &t.entries[e]
	i, _, _ := t.find(en.v)
	mask := uint32(len(t.index) - 1)
	// Backward shift: pull each later slot of the run into the hole unless
	// its home lies cyclically after the hole.
	for j := (i + 1) & mask; t.index[j].e != 0; j = (j + 1) & mask {
		if (j-t.home(t.index[j].v))&mask >= (j-i)&mask {
			t.index[i] = t.index[j]
			i = j
		}
	}
	t.index[i] = slot{}
	if en.nbrs != nil {
		t.sizeBytes -= entryBytes(en.nbrs)
	}
	*en = entry{}
	t.free = append(t.free, e)
}

// grow doubles the index and re-inserts every entry.
func (t *table) grow() {
	t.index = make([]slot, 2*len(t.index))
	t.shift--
	mask := uint32(len(t.index) - 1)
	for e, en := range t.entries {
		if en.stamp == 0 {
			continue
		}
		i := t.home(en.v)
		for t.index[i].e != 0 {
			i = (i + 1) & mask
		}
		t.index[i] = slot{en.v, int32(e) + 1}
	}
}

func (t *table) Release() {
	if t.reserved > 0 {
		// A Miss nobody filled has no list to serve: drop it, so no later
		// batch takes its entry for a hit.
		for k := len(t.ring) - 1; k >= t.head && t.ring[k].stamp == t.now; k-- {
			if e := t.ring[k].e; t.entries[e].nbrs == nil {
				t.evict(e)
			}
		}
		t.reserved = 0
	}
	t.now++
	// Keep the ring within twice the live entries: compact it once stale
	// pairs outnumber live ones, else drop the popped prefix once it is
	// longer than what follows it.
	live, n := len(t.entries)-len(t.free), len(t.ring)-t.head
	switch {
	case n > 2*live:
		k := 0
		for _, p := range t.ring[t.head:] {
			if t.entries[p.e].stamp == p.stamp {
				t.ring[k] = p
				k++
			}
		}
		t.ring, t.head = t.ring[:k], 0
	case t.head > n:
		t.ring, t.head = t.ring[:copy(t.ring, t.ring[t.head:])], 0
	}
}

func (t *table) Contains(v graph.VertexID) bool {
	_, e, ok := t.find(v)
	return ok && t.entries[e].nbrs != nil
}

func (t *table) Seal(v graph.VertexID) {
	if _, e, ok := t.find(v); ok && t.entries[e].stamp != t.now {
		t.entries[e].stamp = t.now
		t.ring = append(t.ring, pair{e, t.now})
	}
}

func (t *table) Insert(v graph.VertexID, nbrs []graph.VertexID) {
	if st, e := t.Want(v); st == Miss {
		t.Fill(e, nbrs)
	}
}

func (t *table) Len() int          { return len(t.entries) - len(t.free) }
func (t *table) SizeBytes() uint64 { return t.sizeBytes }
