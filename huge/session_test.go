package huge

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/baseline"
)

// TestConcurrentRunsShareOneSystem is the acceptance test of the
// concurrent-service refactor: >= 4 queries run simultaneously on one
// System (validated under -race), every count matches ground truth, and
// each run's metrics are its own — a pulling query must not see another
// query's pushed bytes, and single-run byte counts must equal what the
// same query reports when run alone.
func TestConcurrentRunsShareOneSystem(t *testing.T) {
	g := Generate("GO", 1)
	sys := NewSystem(g, Options{Machines: 3, Workers: 2})

	queries := []*Query{Triangle(), Q1(), Q2(), Q3(), Q1(), Triangle()}
	want := make([]uint64, len(queries))
	for i, q := range queries {
		want[i] = baseline.GroundTruthCount(g, q)
	}

	const rounds = 3
	var wg sync.WaitGroup
	results := make([][]Result, rounds)
	errs := make([][]error, rounds)
	for r := 0; r < rounds; r++ {
		results[r] = make([]Result, len(queries))
		errs[r] = make([]error, len(queries))
		for i, q := range queries {
			wg.Add(1)
			go func(r, i int, q *Query) {
				defer wg.Done()
				results[r][i], errs[r][i] = sys.Exec(context.Background(), q, CountOnly()).Wait()
			}(r, i, q)
		}
	}
	wg.Wait()

	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			if errs[r][i] != nil {
				t.Fatalf("round %d %s: %v", r, q.Name(), errs[r][i])
			}
			if results[r][i].Count != want[i] {
				t.Errorf("round %d %s: count %d, want %d", r, q.Name(), results[r][i].Count, want[i])
			}
			// Metrics isolation: each run's Results counter must be exactly
			// its own match count — a sink shared with any concurrent run of
			// a different query would sum foreign matches into it.
			if got := results[r][i].Metrics.Results; got != want[i] {
				t.Errorf("round %d %s: results metric %d, want %d (metrics leaked?)", r, q.Name(), got, want[i])
			}
			if results[r][i].Metrics.BytesPulled == 0 {
				t.Errorf("round %d %s: no pulled bytes recorded on a multi-machine run", r, q.Name())
			}
		}
	}
}

func TestPlanCacheAmortisesRepeatedQueries(t *testing.T) {
	g := Generate("GO", 1)
	sys := NewSystem(g, Options{Machines: 2, Workers: 1})

	res1, err := sys.Exec(context.Background(), Q1(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res1.PlanCached {
		t.Error("first run reported a cached plan")
	}
	hits, misses, size := sys.PlanCacheStats()
	if hits != 0 || misses != 1 || size != 1 {
		t.Fatalf("after cold run: stats (%d, %d, %d), want (0, 1, 1)", hits, misses, size)
	}

	// Re-running the same pattern — and a relabelled copy — must hit.
	res2, err := sys.Exec(context.Background(), Q1(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCached {
		t.Error("repeat run did not reuse the cached plan")
	}
	relabelled := NewQuery("square-relabelled", [][2]int{{2, 0}, {0, 3}, {3, 1}, {1, 2}})
	res3, err := sys.Exec(context.Background(), relabelled, CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res3.PlanCached {
		t.Error("relabelled square did not reuse the cached plan")
	}
	if res3.Count != res1.Count {
		t.Errorf("relabelled square count %d, want %d", res3.Count, res1.Count)
	}
	hits, misses, size = sys.PlanCacheStats()
	if hits < 2 || misses != 1 {
		t.Fatalf("after repeats: stats (%d, %d, %d), want >=2 hits and exactly 1 miss", hits, misses, size)
	}

	// A different pattern is a fresh miss.
	if _, err := sys.Exec(context.Background(), Q2(), CountOnly()).Wait(); err != nil {
		t.Fatal(err)
	}
	_, misses, _ = sys.PlanCacheStats()
	if misses != 2 {
		t.Fatalf("misses = %d after a second distinct query, want 2", misses)
	}
}

func TestEnumerateRejectsForeignNumberingPlan(t *testing.T) {
	// Warm the cache with a relabelled 2-path, then Enumerate the
	// differently-numbered original: matches must still be indexed by the
	// *caller's* query vertices.
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}})
	sys := NewSystem(g, Options{})
	warm := NewQuery("2path-relabelled", [][2]int{{1, 0}, {0, 2}}) // centre is vertex 0
	if _, err := sys.Exec(context.Background(), warm, CountOnly()).Wait(); err != nil {
		t.Fatal(err)
	}
	q := NewQuery("2path", [][2]int{{0, 1}, {1, 2}}) // centre is vertex 1
	var mu sync.Mutex
	var got [][]VertexID
	res, err := sys.Exec(context.Background(), q, OnMatch(func(m []VertexID) {
		mu.Lock()
		got = append(got, append([]VertexID(nil), m...))
		mu.Unlock()
	})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanCached {
		t.Error("Enumerate reused a plan with foreign vertex numbering")
	}
	if len(got) != 1 || got[0][1] != 1 {
		t.Fatalf("matches %v: query vertex 1 (the centre) must be data vertex 1", got)
	}

	// A repeat enumeration of the same numbering must amortise via the
	// numbering-exact cache slot (not re-run the optimiser forever).
	res2, err := sys.Exec(context.Background(), q, OnMatch(func([]VertexID) {})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res2.PlanCached {
		t.Error("repeat Enumerate did not reuse the numbering-exact cached plan")
	}
}

func TestRunConcurrentCancellation(t *testing.T) {
	g := Generate("LJ", 2)
	sys := NewSystem(g, Options{Machines: 2, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the run starts: must abort promptly
	_, err := sys.Exec(ctx, Q6(), CountOnly()).Wait()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSessionStats(t *testing.T) {
	g := Generate("GO", 1)
	sys := NewSystem(g, Options{Machines: 2})
	se := sys.NewSession()
	ctx := context.Background()

	r1, err := se.Exec(ctx, Q1(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := se.Exec(ctx, Q1(), CountOnly()).Wait(); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := se.Exec(cancelled, Q2(), CountOnly()).Wait(); err == nil {
		t.Fatal("cancelled session run succeeded")
	}
	st := se.Stats()
	if st.Queries != 3 || st.Errors != 1 {
		t.Fatalf("stats = %+v, want 3 queries / 1 error", st)
	}
	if st.Results != 2*r1.Count {
		t.Fatalf("results = %d, want %d", st.Results, 2*r1.Count)
	}
	if st.CachedPlans != 1 {
		t.Fatalf("cached plans = %d, want 1 (second run only)", st.CachedPlans)
	}

	// Sessions on one System share the plan cache but not their counters.
	se2 := sys.NewSession()
	if got := se2.Stats(); got.Queries != 0 {
		t.Fatalf("fresh session has stats %+v", got)
	}
	res, err := se2.Exec(ctx, Q1(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Error("second session missed the shared plan cache")
	}
}

// TestPlanCacheSingleFlight: N concurrent cold requests for one pattern
// must pay the optimiser once — followers wait for the flight and hit.
func TestPlanCacheSingleFlight(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	sys := NewSystem(g, Options{Machines: 2})
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := sys.Exec(context.Background(), Q8(), CountOnly()).Wait(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	hits, misses, size := sys.PlanCacheStats()
	if misses != 1 || hits != 7 || size != 1 {
		t.Fatalf("stats = (%d, %d, %d), want exactly (7, 1, 1): one flight builds, seven join", hits, misses, size)
	}
}
