package engine_test

import (
	"context"
	"fmt"
	"math/rand"
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

// twinPatterns are q1–q8 and every connected 3–5-vertex pattern.
func twinPatterns() []*query.Query {
	qs := query.Catalog()
	for k := 3; k <= 5; k++ {
		qs = append(qs, gpm.ConnectedPatterns(k)...)
	}
	return qs
}

// uniform returns n copies of l.
func uniform(n, l int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = l
	}
	return out
}

// TestTwinTailPatterns is the differential suite of twin-tail counting:
// every pattern, unlabelled, with a uniform vertex label and with a uniform
// edge label, under its optimal and its wco plan, compressed and not, must
// count what the ground-truth enumerator counts. The suite also checks
// that twin tails were counted at all in each variant.
func TestTwinTailPatterns(t *testing.T) {
	plain := gen.PowerLaw(90, 3, 31)
	variants := []struct {
		name  string
		g     *graph.Graph
		label func(q *query.Query) *query.Query
	}{
		{"unlabelled", plain, func(q *query.Query) *query.Query { return q }},
		{"vertex-label", gen.ZipfLabels(plain, 2, 1.2, 5), func(q *query.Query) *query.Query {
			return q.WithVertexLabels(uniform(q.NumVertices(), 0))
		}},
		{"edge-label", gen.ZipfEdgeLabels(plain, 2, 1.2, 5), func(q *query.Query) *query.Query {
			return q.WithEdgeLabels(uniform(q.NumEdges(), 1))
		}},
	}
	ccfg := cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}
	for _, v := range variants {
		stats := plan.ComputeStats(v.g)
		pcfg := plan.Config{NumMachines: 2, GraphEdges: float64(v.g.NumEdges()), Card: plan.MomentEstimator(stats)}
		var twinRuns int
		for _, base := range twinPatterns() {
			q := v.label(base)
			want := baseline.GroundTruthCount(v.g, q)
			for _, p := range []*plan.Plan{plan.Optimize(q, pcfg), plan.HugeWcoPlanStats(q, stats)} {
				df, err := plan.Translate(p)
				if err != nil {
					t.Fatalf("%s %s: %v", v.name, q, err)
				}
				for _, compress := range []bool{true, false} {
					ex := cluster.New(v.g, ccfg).NewExec()
					got, err := engine.Run(context.Background(), ex, df, engine.Config{BatchRows: 32, QueueRows: 128, Compress: compress})
					if err != nil {
						t.Fatalf("%s %s %s: %v", v.name, q, p.Name, err)
					}
					if got != want {
						t.Errorf("%s %s %s compress=%v: count %d, want %d\n%s", v.name, q, p.Name, compress, got, want, df)
					}
					if ex.Metrics.TailRows.Load() > 0 {
						twinRuns++
					}
				}
			}
		}
		if twinRuns == 0 {
			t.Errorf("%s: no run counted a twin tail", v.name)
		}
	}
}

// TestTwinTailDeltaFlows runs the difference-rewritten flows of every
// pattern on a pinned edge set, compressed: a flow whose rewriting leaves
// its last extends interchangeable is counted as a twin tail, and the
// summed counts must match the pinned oracle either way.
func TestTwinTailDeltaFlows(t *testing.T) {
	g := gen.PowerLaw(90, 3, 37)
	rng := rand.New(rand.NewSource(3))
	var pin [][2]graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(graph.VertexID(v)) {
			if graph.VertexID(v) < w && rng.Intn(8) == 0 {
				pin = append(pin, [2]graph.VertexID{graph.VertexID(v), w})
			}
		}
	}
	set := graph.NewEdgeSet(pin)
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2})
	var marked int
	for _, q := range twinPatterns() {
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			t.Fatal(err)
		}
		var got uint64
		for _, df := range flows {
			if hasTwinTail(df) {
				marked++
			}
			n, err := engine.Run(context.Background(), cl.NewExec(), df, engine.Config{BatchRows: 32, QueueRows: 128, Compress: true, DeltaEdges: set})
			if err != nil {
				t.Fatal(err)
			}
			got += n
		}
		if want := baseline.GroundTruthPinnedCount(g, q, set); got != want {
			t.Errorf("%s: pinned count %d, want %d", q, got, want)
		}
	}
	if marked == 0 {
		t.Error("no delta flow carries a twin tail")
	}
}

func hasTwinTail(df *dataflow.Dataflow) bool {
	for _, e := range df.Stages[len(df.Stages)-1].Extends {
		if e.Tail > 0 {
			return true
		}
	}
	return false
}

// TestTwinTailGroupedPatterns keys a grouped run of every twin-tailed wco
// plan on each query vertex and compares the table with the oracle.
func TestTwinTailGroupedPatterns(t *testing.T) {
	g := gen.PowerLaw(90, 3, 41)
	ccfg := cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}
	for _, q := range twinPatterns() {
		df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		if !hasTwinTail(df) {
			continue
		}
		for v := 0; v < q.NumVertices(); v++ {
			spec := dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: v}
			df, _ := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
			if err := plan.AttachGroup(df, spec); err != nil {
				t.Fatal(err)
			}
			agg := engine.NewGroupAgg()
			if _, err := engine.Run(context.Background(), cluster.New(g, ccfg).NewExec(), df, engine.Config{BatchRows: 32, QueueRows: 128, Compress: true, Groups: agg}); err != nil {
				t.Fatal(err)
			}
			got, want := agg.Counts(), baseline.GroundTruthGroupedCount(g, q, spec)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s by v%d: groups %v, want %v", q, v+1, got, want)
			}
		}
	}
}
