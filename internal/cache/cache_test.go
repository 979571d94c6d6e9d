package cache

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

func nbrs(xs ...graph.VertexID) []graph.VertexID { return xs }

func TestLRBUBasic(t *testing.T) {
	c := New(LRBU, 1<<20)
	if _, ok := c.Get(1); ok {
		t.Fatal("Get on empty cache succeeded")
	}
	c.Insert(1, nbrs(2, 3))
	if !c.Contains(1) {
		t.Fatal("Contains(1) = false after insert")
	}
	got, ok := c.Get(1)
	if !ok || len(got) != 2 || got[0] != 2 {
		t.Fatalf("Get(1) = %v %v", got, ok)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestLRBUZeroCopy(t *testing.T) {
	c := New(LRBU, 1<<20)
	stored := nbrs(7, 8, 9)
	c.Insert(5, stored)
	got, _ := c.Get(5)
	if &got[0] != &stored[0] {
		t.Fatal("LRBU Get must be zero-copy (alias the stored slice)")
	}
	cc := New(LRBUCopy, 1<<20)
	cc.Insert(5, stored)
	got2, _ := cc.Get(5)
	if &got2[0] == &stored[0] {
		t.Fatal("LRBU-Copy Get must copy")
	}
}

func TestLRBUEvictsLeastRecentBatch(t *testing.T) {
	// Capacity fits ~2 entries (each entryBytes = 4*len + 48).
	c := New(LRBU, 2*(4*2+48))
	// Batch 1: insert a, b; release.
	c.Insert(1, nbrs(0, 0))
	c.Insert(2, nbrs(0, 0))
	c.Release()
	// Batch 2: seal 2 (reused), insert 3 -> must evict 1 (least recent
	// batch), not 2 (sealed).
	c.Seal(2)
	c.Insert(3, nbrs(0, 0))
	if c.Contains(1) {
		t.Fatal("vertex 1 (unsealed, oldest) should have been evicted")
	}
	if !c.Contains(2) || !c.Contains(3) {
		t.Fatal("sealed / fresh entries must survive")
	}
	c.Release()
}

func TestLRBUOverflowWhenAllSealed(t *testing.T) {
	c := New(LRBU, 1) // capacity smaller than any entry
	c.Insert(1, nbrs(9))
	c.Insert(2, nbrs(9))
	// Ŝ_free is empty (both sealed), so inserts must proceed regardless.
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2 (bounded overflow allowed)", c.Len())
	}
	c.Release()
	// Next batch: inserting now can evict the released entries.
	c.Insert(3, nbrs(9))
	if c.Len() > 2 {
		t.Fatalf("Len = %d after release+insert, eviction should have run", c.Len())
	}
}

func TestLRBUSealPreventsEviction(t *testing.T) {
	c := New(LRBU, 4+48) // fits one single-neighbour entry
	c.Insert(1, nbrs(5))
	c.Release()
	c.Seal(1)
	c.Insert(2, nbrs(6)) // over capacity but 1 is sealed -> overflow
	if !c.Contains(1) {
		t.Fatal("sealed entry evicted")
	}
	c.Release()
}

func TestLRBUDoubleInsertSeals(t *testing.T) {
	c := New(LRBU, 1<<20)
	c.Insert(1, nbrs(5))
	c.Release()
	c.Insert(1, nbrs(5)) // re-insert: must seal, not duplicate
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	c.Release()
}

func TestLRBUSealUnknownVertexIsNoop(t *testing.T) {
	c := New(LRBU, 1<<20)
	c.Seal(99)
	c.Release()
	if c.Len() != 0 {
		t.Fatal("sealing unknown vertex changed the cache")
	}
}

func TestLRUInfUnbounded(t *testing.T) {
	c := New(LRUInf, 0)
	for i := 0; i < 1000; i++ {
		c.Insert(graph.VertexID(i), nbrs(graph.VertexID(i)))
	}
	if c.Len() != 1000 {
		t.Fatalf("LRU-Inf evicted: Len = %d", c.Len())
	}
}

func TestLRUBoundedEviction(t *testing.T) {
	inner := newLRU(2*(4+48), false)
	inner.Insert(1, nbrs(1))
	inner.Insert(2, nbrs(2))
	// Touch 1 so 2 becomes LRU.
	if _, ok := inner.Get(1); !ok {
		t.Fatal("Get(1) failed")
	}
	inner.Insert(3, nbrs(3))
	if inner.Contains(2) {
		t.Fatal("LRU did not evict the least recently used entry")
	}
	if !inner.Contains(1) || !inner.Contains(3) {
		t.Fatal("wrong entry evicted")
	}
}

func TestCncrLRUConcurrentAccess(t *testing.T) {
	c := New(CncrLRU, 1<<16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 2000; i++ {
				v := graph.VertexID(rng.Intn(200))
				if _, ok := c.Get(v); !ok {
					c.Insert(v, nbrs(v, v+1))
				}
			}
		}(int64(w))
	}
	wg.Wait()
	if c.Len() == 0 {
		t.Fatal("cache empty after concurrent load")
	}
}

func TestLockedCacheDelegates(t *testing.T) {
	c := New(LRBULock, 1<<20)
	c.Insert(1, nbrs(2))
	c.Seal(1)
	c.Release()
	if !c.Contains(1) || c.Len() != 1 || c.SizeBytes() == 0 {
		t.Fatal("locked cache delegation broken")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("locked Get failed")
	}
}

func TestKindString(t *testing.T) {
	kinds := []Kind{LRBU, LRBUCopy, LRBULock, LRUInf, CncrLRU}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("bad or duplicate Kind string %q", s)
		}
		seen[s] = true
	}
	if Kind(99).String() != "unknown" {
		t.Fatal("unknown kind should stringify as unknown")
	}
	if !LRBU.TwoStage() || CncrLRU.TwoStage() {
		t.Fatal("TwoStage flags wrong")
	}
}

// Randomised batch workload: LRBU must never evict a sealed entry, and its
// size accounting must stay consistent.
func TestLRBURandomisedBatches(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := newTable(600, false)
	defer Free(c)
	for batch := 0; batch < 300; batch++ {
		sealedNow := map[graph.VertexID]bool{}
		for i := 0; i < 5; i++ {
			v := graph.VertexID(rng.Intn(40))
			if c.Contains(v) {
				c.Seal(v)
			} else {
				c.Insert(v, nbrs(v))
			}
			sealedNow[v] = true
		}
		for v := range sealedNow {
			if !c.Contains(v) {
				t.Fatalf("batch %d: sealed vertex %d evicted", batch, v)
			}
		}
		c.Release()
		var want uint64
		for _, e := range c.entries {
			if e.stamp != 0 {
				want += entryBytes(e.nbrs)
			}
		}
		if c.SizeBytes() != want {
			t.Fatalf("batch %d: size accounting drift: %d vs %d", batch, c.SizeBytes(), want)
		}
	}
}

// TestLRBUInsertAllocs: a warm table — its index, entries and ring grown —
// that evicts as much as it inserts allocates nothing per batch, through
// either protocol, and a cold one allocates only as its arrays double.
func TestLRBUInsertAllocs(t *testing.T) {
	list := nbrs(1, 2, 3, 4)
	const perBatch = 64
	c := newTable(64*entryBytes(list), false) // 64 entries fit
	defer Free(c)
	next := graph.VertexID(0)
	insert := func() {
		for i := 0; i < perBatch; i++ {
			c.Insert(next, list)
			next++
		}
		c.Release()
	}
	var refs [perBatch]int32
	want := func() {
		for i := range refs {
			_, refs[i] = c.Want(next)
			c.Want(next) // a duplicate
			next++
		}
		for _, e := range refs {
			c.Fill(e, list)
		}
		c.Release()
	}
	for i := 0; i < 8; i++ {
		insert() // warm: the cache is full and its arrays have grown
		want()
	}
	if a := testing.AllocsPerRun(100, insert); a > 0 {
		t.Errorf("a warm table allocates %.1f times per batch of %d evicting inserts, want 0", a, perBatch)
	}
	if a := testing.AllocsPerRun(100, want); a > 0 {
		t.Errorf("a warm table allocates %.1f times per batch of %d evicting wants, want 0", a, perBatch)
	}
	const n = 1024
	cold := func() {
		c := &table{}
		c.index, c.shift, c.now, c.capacity = make([]slot, minIndex), 24, 1, 1<<30
		for v := graph.VertexID(0); v < n; v++ {
			c.Insert(v, list)
		}
	}
	// The table, its first index, three more doublings of it, and the
	// append growth of entries and ring: about log2(n) each.
	if a := testing.AllocsPerRun(10, cold); a > 32 {
		t.Errorf("a cold table allocates %.0f times for %d inserts, want at most 32", a, n)
	}
}

// listOf gives every vertex a list of its own length; every fifth vertex
// has none, and pulls arrive as nil for some of those.
func listOf(v graph.VertexID) []graph.VertexID {
	d := int(v % 5)
	if d == 0 && v%2 == 0 {
		return nil
	}
	return shared[:d:d]
}

var shared = make([]graph.VertexID, 8)

// check compares t with the reference after a batch: the same vertices
// cached, the same Len and SizeBytes, and a ring within twice the live
// entries.
func check(tb testing.TB, where string, t *table, ref *refLRBU, universe int) {
	tb.Helper()
	for v := graph.VertexID(0); v < graph.VertexID(universe); v++ {
		if got, want := t.Contains(v), ref.Contains(v); got != want {
			tb.Fatalf("%s: Contains(%d) = %v, reference %v", where, v, got, want)
		}
	}
	if t.Len() != ref.Len() || t.SizeBytes() != ref.SizeBytes() {
		tb.Fatalf("%s: Len %d SizeBytes %d, reference %d %d", where, t.Len(), t.SizeBytes(), ref.Len(), ref.SizeBytes())
	}
	if n := len(t.ring) - t.head; n > 2*t.Len() {
		tb.Fatalf("%s: ring holds %d pairs for %d entries", where, n, t.Len())
	}
}

// TestTableMatchesReference drives the table and the linked-list oracle
// with the same seeded batch streams, at capacities from one that never
// fits an entry (every fill overflows while all entries are sealed) to one
// that never evicts (the ring must compact instead), through both
// protocols, and requires the same cache after every batch. Phases over a
// working set that fits alternate with phases over every vertex, so
// eviction follows compaction. Each stream takes the table the previous
// one handed back to the pool.
//
//   - Contains / Seal / Insert, the tracked benchmark's probe: both get
//     the same calls in the same order.
//   - Want / Fill, the machine's fetch stage: a batch runs one or two
//     rounds (the second like fetchEnds' second Fetch, re-wanting some of
//     the first round's vertices). A round wants its hits, then its
//     misses, each with duplicates, then fills the misses; the reference
//     seals the hits and inserts the misses in that order.
func TestTableMatchesReference(t *testing.T) {
	const universe = 120
	for seed := int64(1); seed <= 60; seed++ {
		for _, capacity := range []uint64{1, 300, 1200, 4000, 1 << 30} {
			for _, wantFill := range []bool{false, true} {
				rng := rand.New(rand.NewSource(seed))
				tab, ref := newTable(capacity, false), newRefLRBU(capacity)
				if tab.Len() != 0 || tab.SizeBytes() != 0 {
					t.Fatalf("seed %d: a pooled table comes back holding %d entries, %d bytes", seed, tab.Len(), tab.SizeBytes())
				}
				for batch := 0; batch < 80; batch++ {
					where := fmt.Sprintf("seed %d capacity %d batch %d", seed, capacity, batch)
					// Phases of 20 batches over a working set that fits
					// compact the ring; the phases over every vertex
					// that follow evict through the compacted ring.
					size, span := 1+rng.Intn(30), universe
					if batch/20%2 == 0 {
						span = 20
					}
					if wantFill {
						wanted := map[graph.VertexID]bool{}
						for round := 0; round < 1+rng.Intn(2); round++ {
							var hits, misses, dups []graph.VertexID
							for i := 0; i < size; i++ {
								v := graph.VertexID(rng.Intn(span))
								switch {
								case wanted[v]:
									dups = append(dups, v)
								case ref.Contains(v):
									hits = append(hits, v)
								default:
									misses = append(misses, v)
								}
								wanted[v] = true
							}
							var refs []int32
							for _, v := range hits {
								if st, _ := tab.Want(v); st != Hit {
									t.Fatalf("%s: Want(%d) = %d, want a hit", where, v, st)
								}
								ref.Seal(v)
							}
							for _, v := range misses {
								st, e := tab.Want(v)
								if st != Miss {
									t.Fatalf("%s: Want(%d) = %d, want a miss", where, v, st)
								}
								refs = append(refs, e)
							}
							for _, v := range append(dups, hits...) {
								if st, _ := tab.Want(v); st != Duplicate {
									t.Fatalf("%s: Want(%d) = %d, want a duplicate", where, v, st)
								}
							}
							for i, v := range misses {
								tab.Fill(refs[i], listOf(v))
								ref.Insert(v, listOf(v))
							}
							for v := range wanted {
								if nb, ok := tab.Get(v); !ok || len(nb) != int(v%5) {
									t.Fatalf("%s: sealed Get(%d) = %v %v", where, v, nb, ok)
								}
							}
						}
					} else {
						for i := 0; i < size; i++ {
							v := graph.VertexID(rng.Intn(span))
							if tab.Contains(v) {
								tab.Seal(v)
								ref.Seal(v)
							} else {
								tab.Insert(v, listOf(v))
								ref.Insert(v, listOf(v))
							}
						}
					}
					tab.Release()
					ref.Release()
					check(t, where, tab, ref, universe)
				}
				Free(tab)
				for _, e := range tab.entries[:cap(tab.entries)] {
					if e.nbrs != nil {
						t.Fatalf("seed %d: a freed table still holds the list of %d", seed, e.v)
					}
				}
				if slices.ContainsFunc(tab.index, func(s slot) bool { return s != slot{} }) {
					t.Fatalf("seed %d: a freed table's index is not empty", seed)
				}
			}
		}
	}
}

// TestTableDegreeZero: an empty list is a real adjacency. A vertex with no
// neighbours is cached, read back as present, and a hit in the next batch.
func TestTableDegreeZero(t *testing.T) {
	c := newTable(1<<20, false)
	defer Free(c)
	for _, nb := range [][]graph.VertexID{nil, {}} {
		_, e := c.Want(7)
		c.Fill(e, nb)
		if got, ok := c.Get(7); !ok || len(got) != 0 || !c.Contains(7) {
			t.Fatalf("degree-0 vertex filled with %v: Get = %v %v", nb, got, ok)
		}
		c.Release()
		if st, _ := c.Want(7); st != Hit {
			t.Fatalf("degree-0 vertex filled with %v: next batch's Want = %d, want a hit", nb, st)
		}
		c.Release()
		c.evict(0)
	}
}

// TestTableUnfilledMissDropped: a Miss that no Fill completed is not
// cached: Release drops it, and the next batch misses again.
func TestTableUnfilledMissDropped(t *testing.T) {
	c := newTable(1<<20, false)
	defer Free(c)
	c.Want(3)
	if _, ok := c.Get(3); ok || c.Contains(3) {
		t.Fatal("a reserved entry reads as cached")
	}
	c.Release()
	if c.Len() != 0 {
		t.Fatalf("Len = %d after releasing an unfilled miss", c.Len())
	}
	if st, _ := c.Want(3); st != Miss {
		t.Fatalf("Want after an unfilled miss = %d, want a miss", st)
	}
}

// TestTableRingCompacts: a run that never evicts re-stamps the same
// entries batch after batch; the ring stays within twice of them.
func TestTableRingCompacts(t *testing.T) {
	c := newTable(1<<30, false)
	defer Free(c)
	batch := func() {
		for v := graph.VertexID(0); v < 10; v++ {
			c.Insert(v, nbrs(v))
		}
		c.Release()
	}
	for i := 0; i < 10; i++ {
		batch()
	}
	grown := cap(c.ring)
	for i := 0; i < 1000; i++ {
		batch()
		if len(c.ring) > 20 || cap(c.ring) != grown {
			t.Fatalf("batch %d: ring holds %d pairs (capacity %d, was %d) for %d entries", i, len(c.ring), cap(c.ring), grown, c.Len())
		}
	}
}

// TestLRUWantDedups: the LRU kinds stamp a batch as the table does.
func TestLRUWantDedups(t *testing.T) {
	for _, k := range []Kind{LRUInf, LRBULock} {
		c := New(k, 1<<20)
		st1, e := c.Want(4)
		st2, _ := c.Want(4)
		c.Fill(e, nbrs(5))
		c.Release()
		st3, _ := c.Want(4)
		st4, _ := c.Want(4)
		if st1 != Miss || st2 != Duplicate || st3 != Hit || st4 != Duplicate {
			t.Fatalf("%v: Want statuses %d %d %d %d, want miss, duplicate, hit, duplicate", k, st1, st2, st3, st4)
		}
		if nb, ok := c.Get(4); !ok || !slices.Equal(nb, nbrs(5)) {
			t.Fatalf("%v: Get = %v %v", k, nb, ok)
		}
		Free(c)
	}
}

// BenchmarkLRBU replays a degree-weighted vertex stream over LJ×1 (the
// endpoints of random edges, like the remote vertices an extend touches)
// through a table sized at 30 % of the graph, with the fetch stage's
// protocol per 4096-vertex batch: want every vertex and fill the misses,
// get every vertex, release. It reports ns per want, per fill and per get.
func BenchmarkLRBU(b *testing.B) {
	const batch, n = 4096, 1 << 18
	g := gen.ByName("LJ", 1)
	rng := rand.New(rand.NewSource(1))
	stream := make([]graph.VertexID, n)
	for i := range stream {
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		if nb := g.Neighbors(u); len(nb) > 0 {
			u = nb[rng.Intn(len(nb))]
		}
		stream[i] = u
	}
	var wantNs, fillNs, getNs time.Duration
	var fills int
	type miss struct {
		v graph.VertexID
		e int32
	}
	var misses []miss
	b.ResetTimer()
	for it := 0; it < b.N; it++ {
		c := New(LRBU, g.SizeBytes()*3/10)
		for lo := 0; lo < n; lo += batch {
			vs := stream[lo:min(lo+batch, n)]
			t0 := time.Now()
			misses = misses[:0]
			for _, v := range vs {
				if st, e := c.Want(v); st == Miss {
					misses = append(misses, miss{v, e})
				}
			}
			t1 := time.Now()
			for _, m := range misses {
				c.Fill(m.e, g.Neighbors(m.v))
			}
			t2 := time.Now()
			for _, v := range vs {
				nb, _ := c.Get(v)
				sink += len(nb)
			}
			getNs += time.Since(t2)
			fillNs += t2.Sub(t1)
			wantNs += t1.Sub(t0)
			fills += len(misses)
			c.Release()
		}
		Free(c)
	}
	b.ReportMetric(float64(wantNs.Nanoseconds())/float64(b.N*n), "ns/want")
	b.ReportMetric(float64(fillNs.Nanoseconds())/float64(max(fills, 1)), "ns/fill")
	b.ReportMetric(float64(getNs.Nanoseconds())/float64(b.N*n), "ns/get")
}

var sink int
