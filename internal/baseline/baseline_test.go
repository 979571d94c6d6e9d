package baseline

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
)

func tinyGraph() *graph.Graph { return gen.PowerLaw(150, 3, 17) }

func TestGroundTruthKnownCounts(t *testing.T) {
	// K4: one 4-clique, 3 squares? No — C4 subgraphs of K4: choose 4
	// vertices (1 way), 3 distinct 4-cycles. Triangles: C(4,3)=4.
	k4 := graph.FromEdges([][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}})
	cases := []struct {
		q    *query.Query
		want uint64
	}{
		{query.Triangle(), 4},
		{query.Q1(), 3},
		{query.Q3(), 1},
	}
	for _, c := range cases {
		if got := GroundTruthCount(k4, c.q); got != c.want {
			t.Errorf("%s on K4: %d, want %d", c.q.Name(), got, c.want)
		}
	}
}

// orderedEmbeddings counts the injective, edge-preserving maps of q into
// g with no symmetry breaking, so every embedding once per automorphism.
func orderedEmbeddings(g *graph.Graph, q *query.Query) uint64 {
	n := q.NumVertices()
	assign := make([]graph.VertexID, n)
	all := make([]graph.VertexID, g.NumVertices())
	for i := range all {
		all[i] = graph.VertexID(i)
	}
	var count uint64
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			count++
			return
		}
		cands := all
		for u := 0; u < v; u++ {
			if q.HasEdge(u, v) {
				cands = g.Neighbors(assign[u])
				break
			}
		}
	next:
		for _, c := range cands {
			for u := 0; u < v; u++ {
				if assign[u] == c || (q.HasEdge(u, v) && !g.HasEdge(assign[u], c)) {
					continue next
				}
			}
			assign[v] = c
			rec(v + 1)
		}
	}
	rec(0)
	return count
}

func TestGroundTruthSymmetryFactor(t *testing.T) {
	// Count with symmetry breaking x |Aut| must equal the count of ordered
	// embeddings (no symmetry breaking).
	g := gen.PowerLaw(80, 3, 2)
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2()} {
		withSB := GroundTruthCount(g, q)
		noSB := orderedEmbeddings(g, q)
		aut := uint64(len(query.Automorphisms(q)))
		if withSB == 0 || withSB*aut != noSB {
			t.Errorf("%s: %d * |Aut|=%d != %d", q.Name(), withSB, aut, noSB)
		}
	}
}

func TestGroundTruthEnumerateStops(t *testing.T) {
	g := gen.PowerLaw(100, 4, 3)
	calls := 0
	GroundTruthEnumerate(g, query.Triangle(), func([]graph.VertexID) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("enumeration did not stop: %d calls", calls)
	}
}

func TestBENUMatchesGroundTruth(t *testing.T) {
	g := tinyGraph()
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q3()} {
		want := GroundTruthCount(g, q)
		m := &metrics.Metrics{}
		got := RunBENU(g, q, BENUConfig{NumMachines: 3, Workers: 2, CacheBytes: 1 << 14}, m)
		if got != want {
			t.Errorf("BENU %s: %d, want %d", q.Name(), got, want)
		}
		if m.RPCCalls.Load() == 0 {
			t.Errorf("BENU %s: no store pulls recorded", q.Name())
		}
	}
}

func TestBiGJoinMatchesGroundTruth(t *testing.T) {
	g := tinyGraph()
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q4()} {
		want := GroundTruthCount(g, q)
		m := &metrics.Metrics{}
		got, err := RunBiGJoin(g, q, BiGJoinConfig{NumMachines: 3}, m)
		if err != nil {
			t.Fatalf("BiGJoin %s: %v", q.Name(), err)
		}
		if got != want {
			t.Errorf("BiGJoin %s: %d, want %d", q.Name(), got, want)
		}
		if m.BytesPushed.Load() == 0 {
			t.Errorf("BiGJoin %s: pushed no data", q.Name())
		}
	}
}

func TestBiGJoinBatchingMatches(t *testing.T) {
	g := tinyGraph()
	q := query.Q1()
	want := GroundTruthCount(g, q)
	for _, batch := range []int{0, 7, 100} {
		m := &metrics.Metrics{}
		got, err := RunBiGJoin(g, q, BiGJoinConfig{NumMachines: 2, BatchPivots: batch}, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("batch %d: %d, want %d", batch, got, want)
		}
	}
}

func TestBiGJoinOOM(t *testing.T) {
	g := gen.PowerLaw(500, 8, 4)
	m := &metrics.Metrics{}
	_, err := RunBiGJoin(g, query.Q1(), BiGJoinConfig{NumMachines: 2, MemLimitTuples: 100}, m)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
}

func TestSEEDMatchesGroundTruth(t *testing.T) {
	g := tinyGraph()
	stats := plan.ComputeStats(g)
	card := plan.MomentEstimator(stats)
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q4(), query.Q7()} {
		want := GroundTruthCount(g, q)
		m := &metrics.Metrics{}
		got, err := RunSEED(g, q, SEEDConfig{NumMachines: 3, Card: card}, m)
		if err != nil {
			t.Fatalf("SEED %s: %v", q.Name(), err)
		}
		if got != want {
			t.Errorf("SEED %s: %d, want %d", q.Name(), got, want)
		}
	}
}

func TestSEEDOOM(t *testing.T) {
	g := gen.PowerLaw(500, 8, 4)
	m := &metrics.Metrics{}
	_, err := RunSEED(g, query.Q1(), SEEDConfig{NumMachines: 2, MemLimitTuples: 50}, m)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
}

func TestRADSMatchesGroundTruth(t *testing.T) {
	g := tinyGraph()
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q4()} {
		want := GroundTruthCount(g, q)
		m := &metrics.Metrics{}
		got, err := RunRADS(g, q, RADSConfig{NumMachines: 3, CacheBytes: 1 << 14}, m)
		if err != nil {
			t.Fatalf("RADS %s: %v", q.Name(), err)
		}
		if got != want {
			t.Errorf("RADS %s: %d, want %d", q.Name(), got, want)
		}
	}
}

func TestRADSRegionGroups(t *testing.T) {
	g := tinyGraph()
	q := query.Q2()
	want := GroundTruthCount(g, q)
	for _, group := range []int{0, 10, 50} {
		m := &metrics.Metrics{}
		got, err := RunRADS(g, q, RADSConfig{NumMachines: 2, RegionGroup: group, CacheBytes: 1 << 14}, m)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("region group %d: %d, want %d", group, got, want)
		}
	}
}

// TestBaselineMemoryProfiles checks the paper's qualitative memory story on
// a skewed graph: BENU (DFS) peaks far below BiGJoin/SEED (BFS).
func TestBaselineMemoryProfiles(t *testing.T) {
	g := gen.PowerLaw(400, 5, 6)
	q := query.Q1()
	mBENU := &metrics.Metrics{}
	RunBENU(g, q, BENUConfig{NumMachines: 2, Workers: 2, CacheBytes: 1 << 16}, mBENU)
	mBig := &metrics.Metrics{}
	if _, err := RunBiGJoin(g, q, BiGJoinConfig{NumMachines: 2}, mBig); err != nil {
		t.Fatal(err)
	}
	if mBig.PeakTuples() == 0 {
		t.Fatal("BiGJoin recorded no peak memory")
	}
	// BENU materialises nothing.
	if mBENU.PeakTuples() > mBig.PeakTuples()/2 {
		t.Errorf("BENU peak %d not well below BiGJoin peak %d", mBENU.PeakTuples(), mBig.PeakTuples())
	}
}

// TestBaselineCommProfiles: pulling baselines (BENU) move far less data
// than pushing ones (BiGJoin) — Table 1's C column shape.
func TestBaselineCommProfiles(t *testing.T) {
	g := gen.PowerLaw(400, 5, 6)
	q := query.Q1()
	mBENU := &metrics.Metrics{}
	RunBENU(g, q, BENUConfig{NumMachines: 4, Workers: 1, CacheBytes: 1 << 20}, mBENU)
	mBig := &metrics.Metrics{}
	if _, err := RunBiGJoin(g, q, BiGJoinConfig{NumMachines: 4}, mBig); err != nil {
		t.Fatal(err)
	}
	moved := func(m *metrics.Metrics) uint64 { return m.BytesPushed.Load() + m.BytesPulled.Load() }
	if moved(mBENU) >= moved(mBig) {
		t.Errorf("BENU moved %d bytes, BiGJoin %d — pulling should be smaller", moved(mBENU), moved(mBig))
	}
}
