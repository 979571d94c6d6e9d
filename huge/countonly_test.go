package huge_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/gpm"
	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/plan"
)

// TestCountOnlyTails is the differential of counting runs, which may break
// a pattern's symmetry on its prefix (plan.TranslateCount), against the
// oracle and against streaming, which keeps the pattern's own orders: q7
// and every 4–5-vertex path and tree, unlabelled, vertex-labelled and
// edge-labelled (labels alternating from both ends of the vertex or edge
// numbering, so q7's reversal survives them), at Machines 1/2 × Workers 1/2.
// CountOnly and the streamed count equal baseline.GroundTruthCount, and
// Limit(k) with CountOnly counts exactly min(k, total), and q7's grouped
// tables by each vertex are the oracle's. At least one
// plan per variant must switch its break, so the sweep tests the switch.
func TestCountOnlyTails(t *testing.T) {
	alternating := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = min(i, n-1-i) % 2
		}
		return out
	}
	plain := gen.PowerLaw(100, 3, 71)
	variants := []struct {
		name  string
		g     *huge.Graph
		label func(q *huge.Query) *huge.Query
	}{
		{"unlabelled", plain, func(q *huge.Query) *huge.Query { return q }},
		{"vertex-label", gen.ZipfLabels(plain, 2, 0.5, 72), func(q *huge.Query) *huge.Query {
			return q.WithVertexLabels(alternating(q.NumVertices()))
		}},
		{"edge-label", gen.ZipfEdgeLabels(plain, 2, 0.5, 73), func(q *huge.Query) *huge.Query {
			return q.WithEdgeLabels(alternating(q.NumEdges()))
		}},
	}
	patterns := []*huge.Query{huge.Q7()}
	for k := 4; k <= 5; k++ {
		for _, q := range gpm.ConnectedPatterns(k) {
			if q.NumEdges() == k-1 {
				patterns = append(patterns, q)
			}
		}
	}
	ctx := context.Background()
	for _, v := range variants {
		switched := 0
		for _, base := range patterns {
			q := v.label(base)
			want := baseline.GroundTruthCount(v.g, q)
			for _, machines := range []int{1, 2} {
				for _, workers := range []int{1, 2} {
					id := fmt.Sprintf("%s %s machines=%d workers=%d", v.name, q, machines, workers)
					sys := huge.NewSystem(v.g, huge.Options{Machines: machines, Workers: workers})
					if workers == 1 {
						p := sys.Plan(q)
						df, err1 := plan.Translate(p)
						cf, err2 := plan.TranslateCount(p)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s: %v %v", id, err1, err2)
						}
						if !reflect.DeepEqual(df, cf) {
							switched++
						}
					}
					res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait()
					if err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					st := sys.Exec(ctx, q)
					var streamed uint64
					for range st.Matches() {
						streamed++
					}
					if _, err := st.Wait(); err != nil {
						t.Fatalf("%s: %v", id, err)
					}
					if res.Count != want || streamed != want {
						t.Errorf("%s: CountOnly %d, streamed %d, want %d", id, res.Count, streamed, want)
					}
					if base == patterns[0] && workers == 2 {
						// Grouped runs keep q7's own orders: the table by
						// every vertex is the oracle's.
						for qv := 0; qv < q.NumVertices(); qv++ {
							checkGrouped(t, sys, v.g, q, groupCase{fmt.Sprintf("v%d", qv+1), huge.VertexVar(qv),
								dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: qv}})
						}
					}
					for _, k := range []uint64{1, want / 2, want + 1} {
						res, err := sys.Exec(ctx, q, huge.Limit(int(k)), huge.CountOnly()).Wait()
						if err != nil {
							t.Fatalf("%s Limit(%d): %v", id, k, err)
						}
						if res.Count != min(k, want) {
							t.Errorf("%s Limit(%d): count %d, want %d", id, k, res.Count, min(k, want))
						}
					}
				}
			}
		}
		if switched == 0 {
			t.Errorf("%s: no counting translation moved its break", v.name)
		}
		t.Logf("%s: %d plans switched their break", v.name, switched)
	}
}
