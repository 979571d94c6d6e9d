package cache

import (
	"math/rand"
	"sync"
	"testing"

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
	c := newLRBU(600, false)
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
		for v := range c.m {
			want += entryBytes(c.m[v].nbrs)
		}
		if c.SizeBytes() != want {
			t.Fatalf("batch %d: size accounting drift: %d vs %d", batch, c.SizeBytes(), want)
		}
	}
}

// TestLRBUInsertAllocs: LRBU entries come from slabs and evicted ones are
// reused, so a warm cache that evicts as much as it inserts allocates
// nothing per Insert, and a cold one about one slab per maxSlab entries.
func TestLRBUInsertAllocs(t *testing.T) {
	list := nbrs(1, 2, 3, 4)
	const perBatch = 64
	c := New(LRBU, 64*entryBytes(list)) // 64 entries fit
	next := graph.VertexID(0)
	batch := func() {
		for i := 0; i < perBatch; i++ {
			c.Insert(next, list)
			next++
		}
		c.Release()
	}
	for i := 0; i < 8; i++ {
		batch() // warm: the cache is full and holds spare entries
	}
	if a := testing.AllocsPerRun(100, batch); a > 0 {
		t.Errorf("a warm cache allocates %.1f times per batch of %d evicting inserts, want 0", a, perBatch)
	}
	cold := func() {
		c := New(LRBU, 1<<30)
		for v := graph.VertexID(0); v < 4*maxSlab; v++ {
			c.Insert(v, list)
		}
	}
	// The cache, its map and sealed list grow; the entries cost one
	// object per slab (16, 16, 32, 64, 128, 256, 256, 256 for 1024).
	if a := testing.AllocsPerRun(10, cold); a > 4*maxSlab/8 {
		t.Errorf("a cold cache allocates %.0f times for %d inserts, want at most %d", a, 4*maxSlab, 4*maxSlab/8)
	}
}
