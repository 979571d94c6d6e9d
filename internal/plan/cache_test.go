package plan

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/gen"
	"repro/internal/query"
)

// k is a cache key that differs from others in its query fingerprint only.
func k(queryFP string) Key { return Key{QueryFP: queryFP} }

func optimizeFor(q *query.Query, card CardFunc) *Plan {
	return Optimize(q, Config{NumMachines: 3, GraphEdges: 1000, Card: card})
}

// lookup is a GetOrBuild that serves whatever is cached under key and
// builds nothing on a miss. Like every GetOrBuild it counts a hit or a
// miss.
func lookup(c *Cache, key Key) (*Plan, bool) {
	return c.GetOrBuild(key, func(*Plan) bool { return true }, func() *Plan { return nil })
}

// store makes p the entry under key through GetOrBuild: it rejects any
// entry already there and builds p, which counts one miss.
func store(c *Cache, key Key, p *Plan) {
	c.GetOrBuild(key, func(*Plan) bool { return false }, func() *Plan { return p })
}

// size is the cache's current entry count.
func size(c *Cache) int {
	_, _, n := c.Stats()
	return n
}

func TestCacheHitMissSizeStats(t *testing.T) {
	g := gen.PowerLaw(300, 3, 3)
	stats := ComputeStats(g)
	card := MomentEstimator(stats)
	c := NewCache(8)

	key := Key{QueryFP: query.Q1().Fingerprint()}
	if _, ok := lookup(c, key); ok {
		t.Fatal("hit on empty cache")
	}
	builds := 0
	p, cached := c.GetOrBuild(key, func(*Plan) bool { return true }, func() *Plan {
		builds++
		return optimizeFor(query.Q1(), card)
	})
	if cached || p == nil || builds != 1 {
		t.Fatalf("cold GetOrBuild: cached=%v plan=%v after %d builds, want one build", cached, p, builds)
	}
	if got, ok := lookup(c, key); !ok || got != p {
		t.Fatal("miss after the build was stored")
	}
	hits, misses, n := c.Stats()
	if hits != 1 || misses != 2 || n != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 2, 1)", hits, misses, n)
	}
	// A repeated lookup only moves hits.
	lookup(c, key)
	hits, misses, n = c.Stats()
	if hits != 2 || misses != 2 || n != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (2, 2, 1)", hits, misses, n)
	}
}

func TestCacheIsomorphicQueriesShareEntry(t *testing.T) {
	g := gen.PowerLaw(300, 3, 3)
	card := MomentEstimator(ComputeStats(g))
	c := NewCache(8)

	a := query.New("sq-a", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	// The same square under the relabelling 0->2, 1->0, 2->3, 3->1.
	b := query.New("sq-b", [][2]int{{2, 0}, {0, 3}, {3, 1}, {1, 2}})

	store(c, Key{QueryFP: a.Fingerprint()}, optimizeFor(a, card))
	if _, ok := lookup(c, Key{QueryFP: b.Fingerprint()}); !ok {
		t.Fatal("relabelled square missed the cached plan")
	}
	hits, misses, n := c.Stats()
	if hits != 1 || misses != 1 || n != 1 {
		t.Fatalf("stats = (%d, %d, %d), want (1, 1, 1): one build, one shared hit", hits, misses, n)
	}
}

func TestCacheEvictsLRU(t *testing.T) {
	c := NewCache(2)
	store(c, k("a"), &Plan{Name: "a"})
	store(c, k("b"), &Plan{Name: "b"})
	lookup(c, k("a"))         // refresh a; b is now LRU
	store(c, k("c"), &Plan{}) // evicts b
	if _, ok := lookup(c, k("b")); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := lookup(c, k("a")); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := lookup(c, k("c")); !ok {
		t.Fatal("new entry missing")
	}
	if n := size(c); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}
}

// TestCachePutExistingRefreshes: replacing an entry (a rejected one
// rebuilt) overwrites it in place and makes it the most recently used.
func TestCachePutExistingRefreshes(t *testing.T) {
	c := NewCache(2)
	store(c, k("a"), &Plan{Name: "old"})
	store(c, k("b"), &Plan{Name: "b"})
	store(c, k("a"), &Plan{Name: "new"}) // refresh, not duplicate
	if n := size(c); n != 2 {
		t.Fatalf("size = %d, want 2", n)
	}
	store(c, k("c"), &Plan{}) // should evict b (a was refreshed)
	if _, ok := lookup(c, k("b")); ok {
		t.Fatal("refresh did not update recency")
	}
	if p, _ := lookup(c, k("a")); p == nil || p.Name != "new" {
		t.Fatalf("refresh kept the old value %v", p)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(16)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := k(fmt.Sprintf("k%d", i%24))
				p, _ := c.GetOrBuild(key, func(*Plan) bool { return true }, func() *Plan { return &Plan{Name: key.QueryFP} })
				if p.Name != key.QueryFP {
					t.Errorf("key %s served plan %q", key.QueryFP, p.Name)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := size(c); n > 16 {
		t.Fatalf("capacity exceeded: %d", n)
	}
}

func TestGraphStatsFingerprintChanges(t *testing.T) {
	a := ComputeStats(gen.PowerLaw(300, 3, 3))
	b := ComputeStats(gen.PowerLaw(300, 3, 4))
	if a.Fingerprint() != ComputeStats(gen.PowerLaw(300, 3, 3)).Fingerprint() {
		t.Fatal("stats fingerprint not deterministic")
	}
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("different graphs share a stats fingerprint")
	}
}

// named accepts exactly the plan with the given name; building returns a
// build function for GetOrBuild that counts its calls.
func named(name string) func(*Plan) bool { return func(p *Plan) bool { return p.Name == name } }

func building(name string, calls *int) func() *Plan {
	return func() *Plan { *calls++; return &Plan{Name: name} }
}

// TestCacheGetOrBuildReplacesRejectedEntry: an entry valid rejects is a
// miss, is rebuilt once and overwritten in place; the replacement then hits.
func TestCacheGetOrBuildReplacesRejectedEntry(t *testing.T) {
	c := NewCache(4)
	store(c, k("k"), &Plan{Name: "stale"})
	builds := 0
	p, cached := c.GetOrBuild(k("k"), named("fresh"), building("fresh", &builds))
	if cached || p.Name != "fresh" || builds != 1 {
		t.Fatalf("rejected entry: got %q cached=%v after %d builds, want a fresh build", p.Name, cached, builds)
	}
	hits, misses, n := c.Stats()
	if hits != 0 || misses != 2 || n != 1 {
		t.Fatalf("stats after reject = (%d, %d, %d), want (0, 2, 1): a stale entry is a miss and is replaced", hits, misses, n)
	}
	p, cached = c.GetOrBuild(k("k"), named("fresh"), building("fresh", &builds))
	if !cached || p.Name != "fresh" || builds != 1 {
		t.Fatalf("replacement: got %q cached=%v after %d builds, want a hit", p.Name, cached, builds)
	}
	if hits, _, _ := c.Stats(); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestCacheGetOrBuildRacingReplacement: when the entry is replaced while
// valid is still judging the old one, the replacement is validated in its
// turn and served untouched — not overwritten by a second build.
func TestCacheGetOrBuildRacingReplacement(t *testing.T) {
	c := NewCache(4)
	store(c, k("k"), &Plan{Name: "stale"})
	raced := &Plan{Name: "fresh"}
	builds := 0
	p, cached := c.GetOrBuild(k("k"), func(p *Plan) bool {
		if p.Name == "stale" {
			store(c, k("k"), raced) // another caller's replacement lands mid-validation
			return false
		}
		return true
	}, building("fresh", &builds))
	if !cached || p != raced || builds != 0 {
		t.Fatalf("got %p cached=%v after %d builds, want the racing replacement %p as a hit", p, cached, builds, raced)
	}
	// Two misses are the two stores; the lookup under test is one hit.
	if hits, misses, _ := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = (%d hits, %d misses), want (1, 2)", hits, misses)
	}
}

// TestCacheGetOrBuildEvictionDuringValid: an entry evicted while valid ran
// is still served when valid accepts it (plans are immutable), and is
// rebuilt — into the cache — when it does not.
func TestCacheGetOrBuildEvictionDuringValid(t *testing.T) {
	for _, accept := range []bool{true, false} {
		c := NewCache(1)
		store(c, k("k"), &Plan{Name: "old"})
		builds := 0
		p, cached := c.GetOrBuild(k("k"), func(*Plan) bool {
			store(c, k("other"), &Plan{}) // capacity 1: evicts k
			return accept
		}, building("new", &builds))
		if accept && (!cached || p.Name != "old" || builds != 0) {
			t.Fatalf("accepted: got %q cached=%v after %d builds, want the validated plan", p.Name, cached, builds)
		}
		if !accept {
			if cached || p.Name != "new" || builds != 1 {
				t.Fatalf("rejected: got %q cached=%v after %d builds, want one rebuild", p.Name, cached, builds)
			}
			if got, ok := lookup(c, k("k")); !ok || got != p {
				t.Fatal("rebuilt plan was not stored")
			}
		}
	}
}

// TestCacheGetOrBuildSingleFlight: N concurrent cold requests build once;
// the rest wait and hit. A build that panics releases the key.
func TestCacheGetOrBuildSingleFlight(t *testing.T) {
	c := NewCache(4)
	const n = 8
	var builds atomic.Int32
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, _ := c.GetOrBuild(k("k"), named("p"), func() *Plan {
				builds.Add(1)
				<-release // hold the flight open while the others arrive
				return &Plan{Name: "p"}
			})
			if p.Name != "p" {
				t.Errorf("got plan %q", p.Name)
			}
		}()
	}
	for builds.Load() == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if hits, misses, size := c.Stats(); builds.Load() != 1 || misses != 1 || hits != n-1 || size != 1 {
		t.Fatalf("%d builds, stats (%d, %d, %d); want 1 build and (%d, 1, 1)", builds.Load(), hits, misses, size, n-1)
	}

	func() {
		defer func() { recover() }()
		c.GetOrBuild(k("boom"), named("p"), func() *Plan { panic("optimiser bug") })
	}()
	calls := 0
	if p, cached := c.GetOrBuild(k("boom"), named("p"), building("p", &calls)); cached || p.Name != "p" || calls != 1 {
		t.Fatalf("after a panicking build: got %q cached=%v after %d builds, want a clean rebuild", p.Name, cached, calls)
	}
}
