package engine

import (
	"context"
	"fmt"
	"math"
	"math/big"
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

// TestTwinTailBinom checks binom against math/big: exact whenever C(n, k)
// fits in a uint64, math.MaxUint64 when it does not.
func TestTwinTailBinom(t *testing.T) {
	ns := []uint64{0, 1, 2, 3, 7, 8, 9, 63, 64, 65, 1000, 1 << 16, 1<<20 + 3, 3_000_000_007, 1<<32 - 1, 1 << 32}
	for _, n := range ns {
		for k := uint64(0); k <= 8; k++ {
			want := new(big.Int).Binomial(int64(n), int64(k))
			if n < k {
				want.SetInt64(0) // big.Int.Binomial treats k > n as 0 too; state it
			}
			got := binom(n, k)
			if want.IsUint64() {
				if got != want.Uint64() {
					t.Errorf("binom(%d, %d) = %d, want %s", n, k, got, want)
				}
			} else if got != math.MaxUint64 {
				t.Errorf("binom(%d, %d) = %d, want saturation (exact %s)", n, k, got, want)
			}
		}
	}
	for _, c := range []struct{ n, k, want uint64 }{
		{5, 0, 1}, {0, 0, 1}, {5, 1, 5}, {1, 2, 0}, {0, 1, 0}, {4, 2, 6}, {10, 8, 45},
	} {
		if got := binom(c.n, c.k); got != c.want {
			t.Errorf("binom(%d, %d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

// k23 is K₂,₃: c1 = v1, c2 = v2 and the twins v3, v4, v5.
func k23() *query.Query {
	return query.New("k23", [][2]int{{0, 2}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {1, 4}})
}

// k13 is the 3-star: the twins v3, v4 end its wco pipeline over the matched
// centre v1.
func k13() *query.Query {
	return query.New("k13", [][2]int{{0, 1}, {0, 2}, {0, 3}})
}

// twinHubGraph is a skewed graph whose vertex 0 has more edges than any batch
// in the boundary sweep: a scan that cut its rows apart, or a chunking
// that split them, would break a wedge count in two.
func twinHubGraph() *graph.Graph {
	base := gen.PowerLaw(160, 3, 23)
	var edges [][2]graph.VertexID
	for v := 0; v < base.NumVertices(); v++ {
		for _, w := range base.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w {
				edges = append(edges, [2]graph.VertexID{graph.VertexID(v), w})
			}
		}
	}
	for v := 1; v < base.NumVertices(); v += 2 {
		if !base.HasEdge(0, graph.VertexID(v)) {
			edges = append(edges, [2]graph.VertexID{0, graph.VertexID(v)})
		}
	}
	return graph.FromEdges(edges)
}

// twinDataflow translates q's wco plan and fails unless its sink stage
// carries a twin-tail or a wedge separator mark.
func twinDataflow(t *testing.T, q *query.Query) *dataflow.Dataflow {
	t.Helper()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	st := df.Stages[len(df.Stages)-1]
	if st.Separator == dataflow.WedgeSeparator {
		return df
	}
	for _, e := range st.Extends {
		if e.Tail > 0 {
			return df
		}
	}
	t.Fatalf("%s: wco plan has no twin tail:\n%s", q.Name(), df)
	return nil
}

// TestTwinTailBoundarySweep runs the twin-tailed square (the wedge shape),
// diamond and K₂,₃ on a graph with a hub of degree above BatchRows across
// batch and queue sizes, worker and machine counts and load balancing.
// Every configuration must count exactly, and — since each scan row is a
// counted prefix row exactly once — report as many twin-tail rows as the
// scan emits.
func TestTwinTailBoundarySweep(t *testing.T) {
	g := twinHubGraph()
	if d := g.Degree(0); d <= 64 {
		t.Fatalf("hub degree %d does not exceed the largest batch", d)
	}
	for _, q := range []*query.Query{query.Q1(), query.Q2(), k23()} {
		df := twinDataflow(t, q)
		want := baseline.GroundTruthCount(g, q)
		scanned := scanRows(g, df.Stages[0].Scan)
		for _, batch := range []int{7, 64} {
			for _, queue := range []int64{1, 0} {
				for _, workers := range []int{1, 2, 4} {
					for _, lb := range []LoadBalance{LBSteal, LBStatic, LBPivot} {
						for _, machines := range []int{1, 2, 3} {
							id := fmt.Sprintf("%s batch=%d queue=%d workers=%d lb=%d machines=%d", q.Name(), batch, queue, workers, lb, machines)
							ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: workers, CacheKind: cache.LRBU}).NewExec()
							got, err := Run(context.Background(), ex, df, Config{BatchRows: batch, QueueRows: queue, LoadBalance: lb, Compress: true})
							if err != nil {
								t.Fatalf("%s: %v", id, err)
							}
							if got != want {
								t.Errorf("%s: count %d, want %d", id, got, want)
							}
							if rows := ex.Metrics.TailRows.Load(); rows != scanned {
								t.Errorf("%s: %d twin-tail rows, want the %d scanned", id, rows, scanned)
							}
							if live := ex.Metrics.LiveTuples(); live != 0 {
								t.Errorf("%s: %d live tuples after the run", id, live)
							}
						}
					}
				}
			}
		}
	}
}

// scanRows counts the rows an edge scan without label constraints emits:
// one per ordered edge its order filters keep.
func scanRows(g *graph.Graph, scan *dataflow.EdgeScan) uint64 {
	var n uint64
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if passOrderFilters([]graph.VertexID{graph.VertexID(v), w}, scan.Filters) {
				n++
			}
		}
	}
	return n
}

// TestTwinTailGrouped keys grouped runs of twin-tailed plans on every query
// vertex: keys on a prefix vertex (or c1/c2 of the wedge shape) count at
// the tail's start, keys on a twin fall back to counting at the final
// extend. Either way the table must match the oracle, under a budget too.
func TestTwinTailGrouped(t *testing.T) {
	g := twinHubGraph()
	ccfg := cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}
	for _, q := range []*query.Query{query.Q1(), query.Q2(), k23(), k13()} {
		for v := 0; v < q.NumVertices(); v++ {
			spec := dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: v}
			want := baseline.GroundTruthGroupedCount(g, q, spec)
			df := twinDataflow(t, q)
			if err := plan.AttachGroup(df, spec); err != nil {
				t.Fatal(err)
			}
			agg := NewGroupAgg()
			ex := cluster.New(g, ccfg).NewExec()
			if _, err := Run(context.Background(), ex, df, Config{BatchRows: 16, QueueRows: 64, Compress: true, Groups: agg}); err != nil {
				t.Fatalf("%s by v%d: %v", q.Name(), v+1, err)
			}
			got := agg.Counts()
			if len(got) != len(want) {
				t.Errorf("%s by v%d: %d groups, want %d", q.Name(), v+1, len(got), len(want))
			}
			for k, n := range want {
				if got[k] != n {
					t.Errorf("%s by v%d: group %d = %d, want %d", q.Name(), v+1, k, got[k], n)
				}
			}
			// Under a budget the groups hold exactly the granted matches.
			var total uint64
			for _, n := range want {
				total += n
			}
			for _, k := range []uint64{1, total / 3, total + 5} {
				df := twinDataflow(t, q)
				if err := plan.AttachGroup(df, spec); err != nil {
					t.Fatal(err)
				}
				agg := NewGroupAgg()
				n, err := Run(context.Background(), cluster.New(g, ccfg).NewExec(), df, Config{BatchRows: 16, QueueRows: 64, Compress: true, Groups: agg, Budget: NewBudget(k)})
				if err != nil {
					t.Fatal(err)
				}
				if n != min(k, total) || agg.Total() != n {
					t.Errorf("%s by v%d, budget %d: count %d, groups sum to %d, want %d", q.Name(), v+1, k, n, agg.Total(), min(k, total))
				}
			}
		}
	}
}

// TestTwinTailLimitCountOnly: a budget claims C(c, k) once per prefix row
// (per scanned vertex for the wedge shape), so every k-limited count must
// still come out at exactly min(k, total).
func TestTwinTailLimitCountOnly(t *testing.T) {
	g := twinHubGraph()
	for _, q := range []*query.Query{query.Q1(), query.Q2(), k23(), k13()} {
		df := twinDataflow(t, q)
		want := baseline.GroundTruthCount(g, q)
		for _, k := range []uint64{0, 1, 2, 99, want - 1, want, want + 1} {
			for _, machines := range []int{1, 3} {
				ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: 2, CacheKind: cache.LRBU}).NewExec()
				got, err := Run(context.Background(), ex, df, Config{BatchRows: 64, QueueRows: 1, Compress: true, Budget: NewBudget(k)})
				if err != nil {
					t.Fatal(err)
				}
				if got != min(k, want) {
					t.Errorf("%s limit %d machines=%d: count %d, want %d", q.Name(), k, machines, got, min(k, want))
				}
			}
		}
	}
}

// TestTwinTailCompressOff: without compression, or with a consumer that
// needs the rows, a twin-tailed plan materialises every twin and counts no
// twin-tail row.
func TestTwinTailCompressOff(t *testing.T) {
	g := twinHubGraph()
	for _, q := range []*query.Query{query.Q1(), query.Q2()} {
		df := twinDataflow(t, q)
		want := baseline.GroundTruthCount(g, q)
		for _, cfg := range []Config{
			{BatchRows: 64, QueueRows: 256},
			{BatchRows: 64, QueueRows: 256, Compress: true, OnResult: func([]graph.VertexID) {}},
		} {
			ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
			got, err := Run(context.Background(), ex, df, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("%s compress=%v: count %d, want %d", q.Name(), cfg.Compress, got, want)
			}
			if rows := ex.Metrics.TailRows.Load(); rows != 0 {
				t.Errorf("%s compress=%v onResult=%v: %d twin-tail rows, want 0", q.Name(), cfg.Compress, cfg.OnResult != nil, rows)
			}
		}
	}
}

// TestSeparatorRungSweep counts q6 at its middle rung on the hub graph
// across batch and queue sizes, worker and machine counts and load
// balancing (separatorSweep). Machines 2 and 3 pull rungs whose walked end
// is remote, and steal whole batches whose scanned end is.
func TestSeparatorRungSweep(t *testing.T) {
	separatorSweep(t, query.Q6(), dataflow.RungSeparator)
}

// TestSeparatorPathSweep counts q7 at its middle edge on the hub graph
// across the same settings (separatorSweep). Machines 2 and 3 pull edges
// whose other end is remote, and steal whole batches whose scanned end is.
func TestSeparatorPathSweep(t *testing.T) {
	separatorSweep(t, query.Q7(), dataflow.PathSeparator)
}

// separatorSweep counts q, whose counting translation on the hub graph
// must be marked sep, across batch and queue sizes, worker and machine
// counts and load balancing: every configuration counts exactly, counts
// each scanned edge once, leaves no live tuple, and under a budget counts
// min(k, total).
func separatorSweep(t *testing.T, q *query.Query, sep dataflow.Separator) {
	g := twinHubGraph()
	p := plan.Optimize(q, plan.Config{NumMachines: 2, GraphEdges: float64(g.NumEdges()), Card: plan.MomentEstimator(plan.ComputeStats(g))})
	df, err := plan.TranslateCount(p)
	if err != nil {
		t.Fatal(err)
	}
	if df.Stages[0].Separator != sep {
		t.Fatalf("%s is not counted at separator %d:\n%s", q.Name(), sep, df)
	}
	want := baseline.GroundTruthCount(g, q)
	scanned := scanRows(g, df.Stages[0].Scan)
	var steals uint64
	for _, batch := range []int{7, 64} {
		for _, queue := range []int64{1, -1} {
			for _, workers := range []int{1, 2} {
				for _, lb := range []LoadBalance{LBSteal, LBStatic} {
					for _, machines := range []int{1, 2, 3} {
						id := fmt.Sprintf("%s batch=%d queue=%d workers=%d lb=%d machines=%d", q.Name(), batch, queue, workers, lb, machines)
						ccfg := cluster.Config{NumMachines: machines, Workers: workers, CacheKind: cache.LRBU}
						ex := cluster.New(g, ccfg).NewExec()
						got, err := Run(context.Background(), ex, df, Config{BatchRows: batch, QueueRows: queue, LoadBalance: lb, Compress: true})
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						if got != want {
							t.Errorf("%s: count %d, want %d", id, got, want)
						}
						if rows := ex.Metrics.TailRows.Load(); rows != scanned {
							t.Errorf("%s: %d separator images counted, want the %d scanned", id, rows, scanned)
						}
						if live := ex.Metrics.LiveTuples(); live != 0 {
							t.Errorf("%s: %d live tuples after the run", id, live)
						}
						steals += ex.Metrics.StealsInter.Load()
						for _, k := range []uint64{1, want / 2, want + 1} {
							got, err := Run(context.Background(), cluster.New(g, ccfg).NewExec(), df, Config{BatchRows: batch, QueueRows: 1, LoadBalance: lb, Compress: true, Budget: NewBudget(k)})
							if err != nil {
								t.Fatal(err)
							}
							if got != min(k, want) {
								t.Errorf("%s limit %d: count %d, want %d", id, k, got, min(k, want))
							}
						}
					}
				}
			}
		}
	}
	t.Logf("%s: %d batches stolen between machines", q.Name(), steals)
}
