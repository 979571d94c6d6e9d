package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// listGraph returns a skewed test graph whose degrees all stay below the
// automatic hub threshold (64 at this scale): runs on it dispatch the list
// kernels only.
func listGraph() *graph.Graph { return gen.PowerLaw(200, 3, 11) }

// hubGraph is listGraph plus two appended hub vertices of degree 70, which
// cross the automatic threshold, so their adjacency gets bitsets.
func hubGraph() *graph.Graph {
	base := listGraph()
	n := graph.VertexID(base.NumVertices())
	var b graph.Builder
	for u := graph.VertexID(0); u < n; u++ {
		for _, v := range base.Neighbors(u) {
			if u < v {
				b.AddEdge(u, v)
			}
		}
	}
	for h := graph.VertexID(0); h < 2; h++ {
		for i := graph.VertexID(0); i < 70; i++ {
			b.AddEdge(n+h, h+2*i)
		}
	}
	return b.Build()
}

// runKernel executes q on g under the left-deep wco plan and returns the
// count plus the run's kernel dispatch tally.
func runKernel(t *testing.T, g *graph.Graph, q *query.Query, ecfg Config) (uint64, graph.KernelCounts) {
	t.Helper()
	return runKernelPlan(t, g, plan.HugeWcoPlanStats(q, plan.GraphStats{}), ecfg)
}

func runKernelPlan(t *testing.T, g *graph.Graph, p *plan.Plan, ecfg Config) (uint64, graph.KernelCounts) {
	t.Helper()
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	got, err := Run(context.Background(), ex, df, ecfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return got, ex.Metrics.Kernels.Snapshot()
}

// TestEngineKernelDispatchCounters proves the engine's hot paths actually
// route through the adaptive dispatcher: a counting run must hit the
// count-only kernels and the bitset paths, a materialising run the
// list-building ones, and the same graph without hubs must keep every
// bitset counter at zero while producing the same counts.
func TestEngineKernelDispatchCounters(t *testing.T) {
	g := hubGraph()
	if n := g.NumHubs(); n != 2 {
		t.Fatalf("hub graph has %d hubs, want 2", n)
	}
	q := query.Q2() // square: multiway intersections on both paths
	want := baseline.GroundTruthCount(g, q)

	// Compressed counting run: the final extend counts candidates without
	// materialising them.
	n, kc := runKernel(t, g, q, Config{BatchRows: 64, QueueRows: 256, Compress: true})
	if n != want {
		t.Fatalf("compressed count = %d, want %d", n, want)
	}
	if kc.BitsetProbe+kc.BitsetAnd+kc.CountProbe+kc.CountBitsetAnd == 0 {
		t.Fatalf("hub graph dispatched no bitset kernels: %+v", kc)
	}

	// Materialising run (OnResult forces row building).
	var mu sync.Mutex
	rows := 0
	n2, kc2 := runKernel(t, g, q, Config{BatchRows: 64, QueueRows: 256,
		OnResult: func([]graph.VertexID) { mu.Lock(); rows++; mu.Unlock() }})
	if n2 != want || rows != int(want) {
		t.Fatalf("materialising count = %d (rows %d), want %d", n2, rows, want)
	}
	if kc2.Merge+kc2.Gallop+kc2.BitsetProbe+kc2.BitsetAnd == 0 {
		t.Fatalf("materialising run dispatched no kernels: %+v", kc2)
	}

	// No hubs: list kernels only.
	lists := listGraph()
	if n := lists.NumHubs(); n != 0 {
		t.Fatalf("list graph has %d hubs, want 0", n)
	}
	n3, kc3 := runKernel(t, lists, q, Config{BatchRows: 64, QueueRows: 256, Compress: true})
	if want3 := baseline.GroundTruthCount(lists, q); n3 != want3 {
		t.Fatalf("hubless count = %d, want %d", n3, want3)
	}
	if kc3.BitsetProbe+kc3.BitsetAnd+kc3.CountProbe+kc3.CountBitsetAnd != 0 {
		t.Fatalf("hubless run still dispatched bitset kernels: %+v", kc3)
	}
	if kc3.Merge+kc3.Gallop+kc3.CountMerge+kc3.CountGallop == 0 {
		t.Fatalf("hubless run dispatched no list kernels: %+v", kc3)
	}
}

// TestEngineAdaptiveAcrossQueries checks counts against the hub-free
// oracle on every catalog query over the hub graph, under the wco plan and
// the optimiser's — so each shape (triangles, squares, cliques, stars)
// crosses the dispatcher with its symmetry-breaking orders pushed into the
// operands as bounds, hub bitsets included. Across the catalog the
// count-only and the bitset kernels must both fire.
func TestEngineAdaptiveAcrossQueries(t *testing.T) {
	g := hubGraph()
	stats := plan.ComputeStats(g)
	pcfg := plan.Config{NumMachines: 2, GraphEdges: float64(g.NumEdges()), Card: plan.MomentEstimator(stats)}
	var agg graph.KernelCounts
	for _, q := range query.Catalog() {
		want := baseline.GroundTruthCount(g, q)
		for _, p := range []*plan.Plan{plan.HugeWcoPlanStats(q, plan.GraphStats{}), plan.Optimize(q, pcfg)} {
			n, kc := runKernelPlan(t, g, p, Config{BatchRows: 64, QueueRows: 256, Compress: true})
			if n != want {
				t.Errorf("%s / %s: count = %d, want %d", q.Name(), p.Name, n, want)
			}
			agg.Add(kc)
		}
	}
	if agg.CountMerge+agg.CountGallop+agg.CountProbe+agg.CountBitsetAnd == 0 {
		t.Errorf("no catalog query dispatched a count-only kernel: %+v", agg)
	}
	if agg.BitsetProbe+agg.BitsetAnd == 0 {
		t.Errorf("no catalog query dispatched a bitset kernel: %+v", agg)
	}
}

// TestFilteredExtendTakesCountFastPath pins what bounding the operands
// buys: the triangle's only extend carries symmetry-breaking filters, and
// with those applied to the operands its compressed count needs no
// candidate list — every dispatch is a count-only kernel.
func TestFilteredExtendTakesCountFastPath(t *testing.T) {
	g := hubGraph()
	q := query.Triangle()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	if last := df.Stages[0].Extends[len(df.Stages[0].Extends)-1]; len(last.NewFilters) == 0 {
		t.Fatalf("triangle's extend carries no symmetry-breaking filter:\n%s", df)
	}
	n, kc := runKernel(t, g, q, Config{BatchRows: 64, QueueRows: 256, Compress: true})
	if want := baseline.GroundTruthCount(g, q); n != want {
		t.Fatalf("count = %d, want %d", n, want)
	}
	if kc.Merge+kc.Gallop+kc.BitsetProbe+kc.BitsetAnd != 0 || kc.Total() == 0 {
		t.Fatalf("filtered counting extend materialised candidates: %+v", kc)
	}
}

// TestHubBuildRaceUnderConcurrentRuns races the lazy hub-bitset build: many
// concurrent Execs on one fresh snapshot all demand bitsets at once. Under
// -race this proves the first-Exec build publishes cleanly to the others.
func TestHubBuildRaceUnderConcurrentRuns(t *testing.T) {
	g := hubGraph() // fresh snapshot: no hub index built yet
	q := query.Triangle()
	want := baseline.GroundTruthCount(g, q)
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			n, err := Run(context.Background(), cl.NewExec(), df, Config{BatchRows: 32, QueueRows: 128, Compress: true})
			if err != nil {
				t.Errorf("concurrent run: %v", err)
				return
			}
			if n != want {
				t.Errorf("concurrent run count = %d, want %d", n, want)
			}
		}()
	}
	wg.Wait()
}
