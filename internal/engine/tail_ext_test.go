package engine_test

import (
	"context"
	"fmt"
	"testing"

	"repro/gpm"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// pairTail reports whether df's sink stage ends in a marked tail of two
// targets drawing from different sets — the case counted by one merge.
func pairTail(df *dataflow.Dataflow) bool {
	ext := df.Stages[len(df.Stages)-1].Extends
	if n := len(ext); n >= 2 && ext[n-2].Tail == 2 {
		return !ext[n-2].SameCandidates(ext[n-1], len(ext[n-2].OutLayout)-1)
	}
	return false
}

// alternating returns n labels alternating between 0 and 1.
func alternating(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i % 2
	}
	return out
}

// TestTailPairPatterns is the differential suite of two-set tails: q4–q8
// and every connected 4–5-vertex pattern, unlabelled, vertex-labelled and
// edge-labelled (labels alternating, so label-broken twins turn into
// pairs), under whichever of the optimal and the wco plan ends in a
// two-set tail, at Machines 1/2 × Workers 1/2, compressed and not, must
// count what the ground-truth enumerator counts — and, compressed, count
// the tail's prefix rows.
func TestTailPairPatterns(t *testing.T) {
	plain := gen.PowerLaw(80, 3, 43)
	variants := []struct {
		name  string
		g     *graph.Graph
		label func(q *query.Query) *query.Query
	}{
		{"unlabelled", plain, func(q *query.Query) *query.Query { return q }},
		{"vertex-label", gen.ZipfLabels(plain, 2, 0.5, 5), func(q *query.Query) *query.Query {
			return q.WithVertexLabels(alternating(q.NumVertices()))
		}},
		{"edge-label", gen.ZipfEdgeLabels(plain, 2, 0.5, 5), func(q *query.Query) *query.Query {
			return q.WithEdgeLabels(alternating(q.NumEdges()))
		}},
	}
	patterns := query.Catalog()[3:]
	for k := 4; k <= 5; k++ {
		patterns = append(patterns, gpm.ConnectedPatterns(k)...)
	}
	for _, v := range variants {
		stats := plan.ComputeStats(v.g)
		pcfg := plan.Config{NumMachines: 2, GraphEdges: float64(v.g.NumEdges()), Card: plan.MomentEstimator(stats)}
		var pairs int
		for _, base := range patterns {
			q := v.label(base)
			want := baseline.GroundTruthCount(v.g, q)
			for _, p := range []*plan.Plan{plan.Optimize(q, pcfg), plan.HugeWcoPlanStats(q, stats)} {
				df, err := plan.Translate(p)
				if err != nil {
					t.Fatalf("%s %s: %v", v.name, q, err)
				}
				if !pairTail(df) {
					continue
				}
				pairs++
				for _, machines := range []int{1, 2} {
					for _, workers := range []int{1, 2} {
						for _, compress := range []bool{true, false} {
							id := fmt.Sprintf("%s %s %s machines=%d workers=%d compress=%v", v.name, q, p.Name, machines, workers, compress)
							ex := cluster.New(v.g, cluster.Config{NumMachines: machines, Workers: workers, CacheKind: cache.LRBU}).NewExec()
							got, err := engine.Run(context.Background(), ex, df, engine.Config{BatchRows: 32, QueueRows: 128, Compress: compress})
							if err != nil {
								t.Fatalf("%s: %v", id, err)
							}
							if got != want {
								t.Errorf("%s: count %d, want %d\n%s", id, got, want, df)
							}
							if rows := ex.Metrics.TailRows.Load(); compress && want > 0 && rows == 0 {
								t.Errorf("%s: the tail counted no prefix row", id)
							}
						}
					}
				}
			}
		}
		if pairs == 0 {
			t.Errorf("%s: no plan ends in a two-set tail", v.name)
		}
	}
}

// q7Tail translates q7's optimal plan on g under q7's own orders — the
// middle edge v3–v4 extended by v2 and v5, then the two path ends counted
// as an ordered pair — and fails unless it ends in that pair.
func q7Tail(t *testing.T, g *graph.Graph) *dataflow.Dataflow {
	t.Helper()
	stats := plan.ComputeStats(g)
	p := plan.Optimize(query.Q7(), plan.Config{NumMachines: 2, GraphEdges: float64(g.NumEdges()), Card: plan.MomentEstimator(stats)})
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(df.Stages) != 1 || !pairTail(df) {
		t.Fatalf("q7's optimal plan does not end in a pair tail:\n%s", df)
	}
	return df
}

// TestTailLimitCountOnly: a budget claims a pair tail's count once per
// prefix row, so every k-limited count is exactly min(k, total).
func TestTailLimitCountOnly(t *testing.T) {
	g := gen.PowerLaw(120, 3, 47)
	df := q7Tail(t, g)
	want := baseline.GroundTruthCount(g, query.Q7())
	for _, k := range []uint64{0, 1, 2, 99, want / 2, want - 1, want, want + 1} {
		for _, machines := range []int{1, 3} {
			ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: 2, CacheKind: cache.LRBU}).NewExec()
			got, err := engine.Run(context.Background(), ex, df, engine.Config{BatchRows: 64, QueueRows: 1, Compress: true, Budget: engine.NewBudget(k)})
			if err != nil {
				t.Fatal(err)
			}
			if got != min(k, want) {
				t.Errorf("q7 limit %d machines=%d: count %d, want %d", k, machines, got, min(k, want))
			}
		}
	}
}

// TestTailGrouped keys grouped runs of q7's tail plan on every vertex: a
// key on a prefix vertex (v2–v5) counts at the tail, a key on a path end
// falls back to enumerating to the final extend. Either way the table
// matches the oracle, under a budget too.
func TestTailGrouped(t *testing.T) {
	g := gen.PowerLaw(120, 3, 49)
	q := query.Q7()
	ccfg := cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}
	for v := 0; v < q.NumVertices(); v++ {
		spec := dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: v}
		want := baseline.GroundTruthGroupedCount(g, q, spec)
		var total uint64
		for _, n := range want {
			total += n
		}
		for _, k := range []uint64{0, 1, total / 3} {
			df := q7Tail(t, g)
			if err := plan.AttachGroup(df, spec); err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{BatchRows: 16, QueueRows: 64, Compress: true, Groups: engine.NewGroupAgg()}
			if k > 0 {
				cfg.Budget = engine.NewBudget(k)
			}
			ex := cluster.New(g, ccfg).NewExec()
			n, err := engine.Run(context.Background(), ex, df, cfg)
			if err != nil {
				t.Fatalf("q7 by v%d: %v", v+1, err)
			}
			prefix := v != 0 && v != q.NumVertices()-1
			if rows := ex.Metrics.TailRows.Load(); (rows > 0) != prefix {
				t.Errorf("q7 by v%d: %d tail rows, want them iff v%d is a prefix vertex", v+1, rows, v+1)
			}
			if k > 0 {
				if n != min(k, total) || cfg.Groups.Total() != n {
					t.Errorf("q7 by v%d, budget %d: count %d, groups sum to %d, want %d", v+1, k, n, cfg.Groups.Total(), min(k, total))
				}
				continue
			}
			if got := cfg.Groups.Counts(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("q7 by v%d: groups %v, want %v", v+1, got, want)
			}
		}
	}
}
