package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

func testGraph() *graph.Graph { return gen.PowerLaw(200, 3, 5) }

func runOn(t *testing.T, g *graph.Graph, q *query.Query, p *plan.Plan, ccfg cluster.Config, ecfg Config) uint64 {
	t.Helper()
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatalf("%s/%s: translate: %v", q.Name(), p.Name, err)
	}
	cl := cluster.New(g, ccfg).NewExec()
	got, err := Run(context.Background(), cl, df, ecfg)
	if err != nil {
		t.Fatalf("%s/%s: run: %v", q.Name(), p.Name, err)
	}
	return got
}

// TestEngineMatchesGroundTruth is the central correctness property: every
// plan family, on every catalog query, on a skewed graph, over a 3-machine
// cluster must produce exactly the ground-truth count.
func TestEngineMatchesGroundTruth(t *testing.T) {
	g := testGraph()
	stats := plan.ComputeStats(g)
	card := plan.MomentEstimator(stats)
	ccfg := cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}
	ecfg := Config{BatchRows: 64, QueueRows: 256}
	for _, q := range query.Catalog() {
		want := baseline.GroundTruthCount(g, q)
		plans := map[string]*plan.Plan{
			"optimal": plan.Optimize(q, plan.Config{NumMachines: 3, GraphEdges: float64(g.NumEdges()), Card: card}),
			"wco":     plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			"rads":    plan.ReconfigurePhysical(plan.RADSPlan(q)),
			"seed":    plan.SEEDPlan(q, card),
			"benu":    plan.ReconfigurePhysical(plan.BENUPlan(q)),
		}
		for name, p := range plans {
			if got := runOn(t, g, q, p, ccfg, ecfg); got != want {
				t.Errorf("%s/%s: count = %d, want %d", q.Name(), name, got, want)
			}
		}
	}
}

func TestEngineSingleMachine(t *testing.T) {
	g := testGraph()
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q3()} {
		want := baseline.GroundTruthCount(g, q)
		got := runOn(t, g, q, plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU},
			Config{BatchRows: 128, QueueRows: -1})
		if got != want {
			t.Errorf("%s: count = %d, want %d", q.Name(), got, want)
		}
	}
}

func TestEngineAllCacheKinds(t *testing.T) {
	g := testGraph()
	q := query.Q1()
	want := baseline.GroundTruthCount(g, q)
	for _, kind := range []cache.Kind{cache.LRBU, cache.LRBUCopy, cache.LRBULock, cache.LRUInf, cache.CncrLRU} {
		got := runOn(t, g, q, plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			cluster.Config{NumMachines: 3, Workers: 2, CacheKind: kind, CacheBytes: 4096},
			Config{BatchRows: 64, QueueRows: 256})
		if got != want {
			t.Errorf("cache %s: count = %d, want %d", kind, got, want)
		}
	}
}

func TestEngineSchedulingModes(t *testing.T) {
	g := testGraph()
	q := query.Q2()
	want := baseline.GroundTruthCount(g, q)
	for _, queueRows := range []int64{1, 64, 1024, -1} {
		got := runOn(t, g, q, plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU},
			Config{BatchRows: 32, QueueRows: queueRows})
		if got != want {
			t.Errorf("queueRows %d: count = %d, want %d", queueRows, got, want)
		}
	}
}

func TestEngineLoadBalanceModes(t *testing.T) {
	g := testGraph()
	q := query.Q3()
	want := baseline.GroundTruthCount(g, q)
	for _, lb := range []LoadBalance{LBSteal, LBStatic, LBPivot} {
		got := runOn(t, g, q, plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			cluster.Config{NumMachines: 4, Workers: 3, CacheKind: cache.LRBU},
			Config{BatchRows: 32, QueueRows: 128, LoadBalance: lb})
		if got != want {
			t.Errorf("lb %d: count = %d, want %d", lb, got, want)
		}
	}
}

// TestEnginePushJoinSpill forces the PUSH-JOIN buffers to spill to disk and
// checks the merge join still produces exact counts.
func TestEnginePushJoinSpill(t *testing.T) {
	g := testGraph()
	q := query.Q7() // 5-path: the optimal plan contains a PUSH-JOIN
	stats := plan.ComputeStats(g)
	p := plan.SEEDPlan(q, plan.MomentEstimator(stats)) // all pushing hash joins
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	hasJoin := false
	for _, s := range df.Stages {
		if s.JoinSrc != nil {
			hasJoin = true
		}
	}
	if !hasJoin {
		t.Skip("SEED plan for q7 has no pushing join on this estimator")
	}
	want := baseline.GroundTruthCount(g, q)
	cl := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	got, err := Run(context.Background(), cl, df, Config{BatchRows: 64, QueueRows: 512, JoinBufferRows: 256})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("spilled join: count = %d, want %d", got, want)
	}
	if cl.Metrics.LiveTuples() != 0 {
		t.Errorf("live tuples not drained: %d", cl.Metrics.LiveTuples())
	}
}

func TestEngineMemoryAccountingDrains(t *testing.T) {
	g := testGraph()
	q := query.Q1()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	if _, err := Run(context.Background(), cl, df, Config{BatchRows: 64, QueueRows: 128}); err != nil {
		t.Fatal(err)
	}
	if cl.Metrics.LiveTuples() != 0 {
		t.Fatalf("live tuples = %d after run, want 0", cl.Metrics.LiveTuples())
	}
	if cl.Metrics.PeakTuples() == 0 {
		t.Fatal("peak tuples never recorded")
	}
}

// TestEngineBoundedMemory: with DFS-ish scheduling (capacity 1 batch) the
// peak queued tuples must stay far below the total result count — the
// Theorem 5.4 behaviour — whereas pure BFS materialises everything.
func TestEngineBoundedMemory(t *testing.T) {
	g := gen.PowerLaw(800, 6, 9)
	q := query.Q1()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	run := func(queueRows int64) (uint64, int64) {
		cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
		n, err := Run(context.Background(), cl, df, Config{BatchRows: 128, QueueRows: queueRows, LoadBalance: LBStatic})
		if err != nil {
			t.Fatal(err)
		}
		return n, cl.Metrics.PeakTuples()
	}
	nDFS, peakDFS := run(1)
	nBFS, peakBFS := run(-1)
	if nDFS != nBFS {
		t.Fatalf("DFS and BFS counts differ: %d vs %d", nDFS, nBFS)
	}
	if peakDFS >= peakBFS {
		t.Fatalf("bounded scheduling peak (%d) not below BFS peak (%d)", peakDFS, peakBFS)
	}
}

func TestEngineOnResultCallback(t *testing.T) {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	q := query.Triangle()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	var rows [][]graph.VertexID
	_, err = Run(context.Background(), cl, df, Config{BatchRows: 8, QueueRows: -1, OnResult: func(r []graph.VertexID) {
		rows = append(rows, append([]graph.VertexID(nil), r...))
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("triangle results = %v, want exactly one", rows)
	}
	seen := map[graph.VertexID]bool{}
	for _, v := range rows[0] {
		seen[v] = true
	}
	if !seen[0] || !seen[1] || !seen[2] {
		t.Fatalf("triangle match = %v, want {0,1,2}", rows[0])
	}
}

// TestEngineVariedClusterSizes sweeps machine counts: counts are invariant.
func TestEngineVariedClusterSizes(t *testing.T) {
	g := testGraph()
	q := query.Q2()
	want := baseline.GroundTruthCount(g, q)
	for k := 1; k <= 5; k++ {
		got := runOn(t, g, q, plan.HugeWcoPlanStats(q, plan.GraphStats{}),
			cluster.Config{NumMachines: k, Workers: 2, CacheKind: cache.LRBU},
			Config{BatchRows: 64, QueueRows: 256})
		if got != want {
			t.Errorf("k=%d: count = %d, want %d", k, got, want)
		}
	}
}

// TestEngineRandomGraphsProperty cross-checks optimal plans against ground
// truth over a sweep of random graphs.
func TestEngineRandomGraphsProperty(t *testing.T) {
	queries := []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q4()}
	for seed := int64(0); seed < 5; seed++ {
		g := gen.PowerLaw(150+int(seed)*50, 3+int(seed%3), seed)
		stats := plan.ComputeStats(g)
		card := plan.MomentEstimator(stats)
		for _, q := range queries {
			want := baseline.GroundTruthCount(g, q)
			p := plan.Optimize(q, plan.Config{NumMachines: 2, GraphEdges: float64(g.NumEdges()), Card: card})
			got := runOn(t, g, q, p,
				cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU},
				Config{BatchRows: 32, QueueRows: 64})
			if got != want {
				t.Errorf("seed %d %s: count = %d, want %d", seed, q.Name(), got, want)
			}
		}
	}
}

func TestEngineCommunicationAccounted(t *testing.T) {
	g := testGraph()
	q := query.Q1()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 4, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	if _, err := Run(context.Background(), cl, df, Config{BatchRows: 64, QueueRows: 256}); err != nil {
		t.Fatal(err)
	}
	s := cl.Metrics.Snapshot()
	if s.BytesPulled == 0 || s.RPCCalls == 0 {
		t.Fatalf("pulling plan moved no data: %+v", s)
	}
	if s.CacheHits+s.CacheMisses == 0 {
		t.Fatal("no cache accesses recorded")
	}
}

// TestEngineCompressionEquivalence: the compression optimisation [63] must
// count exactly what materialisation counts, across plans and queries, and
// must lower the peak memory.
func TestEngineCompressionEquivalence(t *testing.T) {
	g := testGraph()
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q3(), query.Q4()} {
		df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		// BFS scheduling on one machine makes the peak deterministic: the
		// materialised run's peak includes the final result level, the
		// compressed run's does not.
		run := func(compress bool) (uint64, int64) {
			cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
			n, err := Run(context.Background(), cl, df, Config{BatchRows: 64, QueueRows: -1, LoadBalance: LBStatic, Compress: compress})
			if err != nil {
				t.Fatal(err)
			}
			return n, cl.Metrics.PeakTuples()
		}
		nC, peakC := run(true)
		nM, peakM := run(false)
		if nC != nM {
			t.Errorf("%s: compressed %d vs materialised %d", q.Name(), nC, nM)
		}
		if nM > 1000 && peakC >= peakM {
			t.Errorf("%s: compression did not lower peak memory (%d >= %d, results %d)",
				q.Name(), peakC, peakM, nM)
		}
	}
}

func TestEngineCompressionWithFilters(t *testing.T) {
	// q3 (4-clique) has symmetry orders on the final extension — the slow
	// compressed path with filters must also be exact.
	g := gen.PowerLaw(400, 5, 11)
	q := query.Q3()
	want := baseline.GroundTruthCount(g, q)
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	got, err := Run(context.Background(), cl, df, Config{BatchRows: 128, QueueRows: 512, Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("compressed count %d, want %d", got, want)
	}
}

func ExampleRun() {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}})
	df, _ := plan.Translate(plan.HugeWcoPlanStats(query.Triangle(), plan.GraphStats{}))
	cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	n, _ := Run(context.Background(), cl, df, Config{})
	fmt.Println(n)
	// Output: 1
}

// TestEngineContextCancellation: a cancelled context aborts the run with
// the context's error and drains all queued work (no leaked accounting).
func TestEngineContextCancellation(t *testing.T) {
	g := gen.PowerLaw(2000, 8, 17)
	q := query.Q6() // the long-running memory-crisis query
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := Run(ctx, ex, df, Config{BatchRows: 64, QueueRows: 256})
		done <- err
	}()
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil (already finished) or context.Canceled", err)
	}
	if live := ex.Metrics.LiveTuples(); live != 0 {
		t.Fatalf("live tuples = %d after cancellation, want 0", live)
	}
}

// TestEngineConcurrentExecs runs several dataflows at once on one shared
// cluster topology (meaningful under -race): independent exec contexts mean
// independent metrics and caches.
func TestEngineConcurrentExecs(t *testing.T) {
	g := testGraph()
	cl := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU})
	queries := []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q3()}
	want := make([]uint64, len(queries))
	dfs := make([]*dataflow.Dataflow, len(queries))
	for i, q := range queries {
		want[i] = baseline.GroundTruthCount(g, q)
		df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		dfs[i] = df
	}
	var wg sync.WaitGroup
	for round := 0; round < 2; round++ {
		for i := range queries {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ex := cl.NewExec()
				got, err := Run(context.Background(), ex, dfs[i], Config{BatchRows: 64, QueueRows: 256})
				if err != nil {
					t.Errorf("%s: %v", queries[i].Name(), err)
					return
				}
				if got != want[i] {
					t.Errorf("%s: count %d, want %d", queries[i].Name(), got, want[i])
				}
				if ex.Metrics.Results.Load() != want[i] {
					t.Errorf("%s: results metric %d, want %d (leak across execs?)",
						queries[i].Name(), ex.Metrics.Results.Load(), want[i])
				}
			}(i)
		}
	}
	wg.Wait()
}

// TestEngineCancellationMultiStage: cancelling between the feeder stages
// and the joining stage of a PUSH-JOIN plan must release the buffered join
// relations — live-tuple accounting returns to zero and spill temp files
// are removed — across a sweep of cancellation points.
func TestEngineCancellationMultiStage(t *testing.T) {
	g := gen.PowerLaw(600, 5, 13)
	q := query.Q7()
	p := plan.SEEDPlan(q, plan.MomentEstimator(plan.ComputeStats(g))) // pushing hash joins
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	spillsBefore := countSpillFiles(t)
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	for _, delay := range []time.Duration{0, 100 * time.Microsecond, time.Millisecond, 5 * time.Millisecond} {
		ex := cl.NewExec()
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			// Tiny join buffers force spilling before the consumer stage.
			_, err := Run(ctx, ex, df, Config{BatchRows: 32, QueueRows: 128, JoinBufferRows: 16})
			done <- err
		}()
		time.Sleep(delay)
		cancel()
		if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("delay %v: err = %v", delay, err)
		}
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Fatalf("delay %v: live tuples = %d after cancellation, want 0", delay, live)
		}
	}
	if after := countSpillFiles(t); after > spillsBefore {
		t.Fatalf("spill files leaked: %d before, %d after", spillsBefore, after)
	}
}

func countSpillFiles(t *testing.T) int {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(os.TempDir(), "huge-join-spill-*"))
	if err != nil {
		t.Fatal(err)
	}
	return len(matches)
}
