package engine

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// randomPinned pins about one edge in every 20 of g.
func randomPinned(g *graph.Graph, seed int64) *graph.EdgeSet {
	rng := rand.New(rand.NewSource(seed))
	var pin [][2]graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w && rng.Intn(20) == 0 {
				pin = append(pin, [2]graph.VertexID{graph.VertexID(v), w})
			}
		}
	}
	return graph.NewEdgeSet(pin)
}

// TestRunReusedExec: runs carried one after another by one execution
// context each return their own count — full, pinned-delta, budgeted and
// grouped runs alike, on every machine and worker count, compressed or
// not — while the context's metrics add up all of them and no run leaves
// a live tuple behind.
func TestRunReusedExec(t *testing.T) {
	g := gen.PowerLaw(200, 3, 23)
	set := randomPinned(g, 29)
	for _, q := range []*query.Query{query.Triangle(), query.Q1()} {
		wco := plan.HugeWcoPlanStats(q, plan.GraphStats{})
		spec := dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: 0}
		full, err := plan.Translate(wco)
		if err != nil {
			t.Fatal(err)
		}
		grouped, _ := plan.Translate(wco)
		if err := plan.AttachGroup(grouped, spec); err != nil {
			t.Fatal(err)
		}
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			t.Fatal(err)
		}
		groupedFlows, _ := plan.TranslateDelta(q)
		for _, df := range groupedFlows {
			if err := plan.AttachGroup(df, spec); err != nil {
				t.Fatal(err)
			}
		}
		wantFull := baseline.GroundTruthCount(g, q)
		wantGroups := fmt.Sprint(baseline.GroundTruthGroupedCount(g, q, spec))
		wantPinned := baseline.GroundTruthPinnedCount(g, q, set)
		if wantPinned < 2 {
			t.Fatalf("%s: the pinned set holds %d matches; the budget case needs 2", q.Name(), wantPinned)
		}
		for _, machines := range []int{1, 2} {
			for _, workers := range []int{1, 2} {
				for _, compress := range []bool{false, true} {
					id := fmt.Sprintf("%s machines=%d workers=%d compress=%v", q.Name(), machines, workers, compress)
					ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: workers, CacheKind: cache.LRBU}).NewExec()
					var returned uint64
					run := func(df *dataflow.Dataflow, cfg Config) uint64 {
						t.Helper()
						n, err := Run(context.Background(), ex, df, cfg)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if live := ex.Metrics.LiveTuples(); live != 0 {
							t.Fatalf("%s: %d live tuples left behind", id, live)
						}
						returned += n
						return n
					}
					base := Config{BatchRows: 32, QueueRows: 128, Compress: compress}
					pinned := base
					pinned.DeltaEdges = set

					for pass := 0; pass < 2; pass++ {
						if n := run(full, base); n != wantFull {
							t.Fatalf("%s: full run %d returned %d, want %d", id, pass, n, wantFull)
						}
					}
					var got uint64
					for _, df := range flows {
						got += run(df, pinned)
					}
					if got != wantPinned {
						t.Fatalf("%s: pinned flows returned %d, want %d", id, got, wantPinned)
					}
					// A budget shared by the flows, as a Limit(k) delta run has it.
					budgeted := pinned
					budgeted.Budget = NewBudget(wantPinned / 2)
					got = 0
					for _, df := range flows {
						if budgeted.Budget.Exhausted() {
							break
						}
						got += run(df, budgeted)
					}
					if got != wantPinned/2 {
						t.Fatalf("%s: budgeted flows returned %d, want %d", id, got, wantPinned/2)
					}
					for pass := 0; pass < 2; pass++ {
						cfg := base
						cfg.Groups = NewGroupAgg()
						if n := run(grouped, cfg); n != wantFull {
							t.Fatalf("%s: grouped run %d returned %d, want %d", id, pass, n, wantFull)
						}
						if got := fmt.Sprint(cfg.Groups.Counts()); got != wantGroups {
							t.Fatalf("%s: grouped run %d: groups %s, want %s", id, pass, got, wantGroups)
						}
					}
					// An aggregate shared by the flows, as a grouped delta run has it.
					cfg := pinned
					cfg.Groups = NewGroupAgg()
					got = 0
					for _, df := range groupedFlows {
						got += run(df, cfg)
					}
					if got != wantPinned || cfg.Groups.Total() != wantPinned {
						t.Fatalf("%s: grouped flows returned %d, grouped %d, want %d", id, got, cfg.Groups.Total(), wantPinned)
					}
					if total := ex.Metrics.Results.Load(); total != returned {
						t.Fatalf("%s: metrics hold %d results, the runs returned %d", id, total, returned)
					}
				}
			}
		}
	}
}

// goroutineHeader returns the "goroutine N" header of the calling
// goroutine's stack trace.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(buf[:bytes.IndexByte(buf, '[')])
}

// TestRunReusedExecDeliversInline: one-machine runs whose batches each form
// one chunk — the flows of a delta pinned on one edge of a small graph, on
// one Exec — start no goroutine: every match reaches OnResult on the
// caller's goroutine.
func TestRunReusedExecDeliversInline(t *testing.T) {
	var b graph.Builder
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}, {3, 4}, {1, 5}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.Build()
	set := graph.NewEdgeSet([][2]graph.VertexID{{0, 1}})
	caller := goroutineHeader()
	for _, q := range []*query.Query{query.Triangle(), query.Q1()} {
		want := baseline.GroundTruthPinnedCount(g, q, set)
		if want == 0 {
			t.Fatalf("%s: no match uses the pinned edge", q.Name())
		}
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			t.Fatal(err)
		}
		ex := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 2, CacheKind: cache.LRBU}).NewExec()
		var mu sync.Mutex
		var on []string
		cfg := Config{BatchRows: minChunkRows, DeltaEdges: set, OnResult: func([]graph.VertexID) {
			h := goroutineHeader()
			mu.Lock()
			on = append(on, h)
			mu.Unlock()
		}}
		for _, df := range flows {
			if _, err := Run(context.Background(), ex, df, cfg); err != nil {
				t.Fatal(err)
			}
		}
		if uint64(len(on)) != want {
			t.Fatalf("%s: %d matches delivered, want %d", q.Name(), len(on), want)
		}
		for _, h := range on {
			if h != caller {
				t.Fatalf("%s: a match reached OnResult on %q, the run was called on %q", q.Name(), h, caller)
			}
		}
	}
}
