package huge_test

import (
	"context"
	"fmt"
	"testing"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/plan"
)

// k2 returns K₂,ₖ: c1 = v1, c2 = v2 and the k twins after them.
func k2(k int) *huge.Query {
	var edges [][2]int
	for t := 2; t < k+2; t++ {
		edges = append(edges, [2]int{0, t}, [2]int{1, t})
	}
	return huge.NewQuery(fmt.Sprintf("k2%d", k), edges)
}

// separatorGraphs are small stand-ins for the LJ, OR and EU shapes: two
// power-law graphs, the second denser, and a road network. The oracle
// enumerates q6 on each in well under a second.
func separatorGraphs() []struct {
	name string
	g    *huge.Graph
} {
	return []struct {
		name string
		g    *huge.Graph
	}{
		{"LJ", gen.PowerLaw(150, 4, 43)},
		{"OR", gen.PowerLaw(110, 6, 44)},
		{"EU", gen.Road(400, 0.02, 46)},
	}
}

// TestSeparatorDifferential is the differential of the counts taken at a
// separator: q6 at its middle rung and K₂,₂…K₂,₄ at their wedge, over
// stand-ins of LJ, OR and EU at Machines 1/2 × Workers 1/2. CountOnly, the
// streamed count and baseline.GroundTruthCount agree, and q6's CountOnly
// runs count at the rung (TailRows > 0); Limit(k) with CountOnly counts
// exactly min(k, total).
func TestSeparatorDifferential(t *testing.T) {
	ctx := context.Background()
	for _, d := range separatorGraphs() {
		for _, q := range []*huge.Query{huge.Q6(), huge.Q1(), k2(3), k2(4)} {
			want := baseline.GroundTruthCount(d.g, q)
			for _, machines := range []int{1, 2} {
				for _, workers := range []int{1, 2} {
					id := fmt.Sprintf("%s %s machines=%d workers=%d", d.name, q.Name(), machines, workers)
					sys := huge.NewSystem(d.g, huge.Options{Machines: machines, Workers: workers})
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
					if q.Name() == "q6-ladder" && want > 0 && res.Metrics.TailRows == 0 {
						t.Errorf("%s: CountOnly did not count at the rung", id)
					}
					for _, k := range []uint64{1, want / 3, want + 1} {
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
	}
}

// TestSeparatorFallbacks: what the rung count does not accept takes the
// enumerating path and still counts the oracle's. q6 grouped by a rung
// vertex (v3) and by a side vertex (v1) keeps q6's own orders; a vertex-
// or edge-labelled q6 is no rung separator (its sides may differ), so its
// counting translation marks none; its delta flows rewrite it per pinned
// edge, and full(t) + Δ = full(t+1) holds across Applies.
func TestSeparatorFallbacks(t *testing.T) {
	ctx := context.Background()
	for _, d := range separatorGraphs()[:2] {
		sys := huge.NewSystem(d.g, huge.Options{Machines: 2, Workers: 2})
		for _, qv := range []int{2, 0} {
			gc := groupCase{fmt.Sprintf("v%d", qv+1), huge.VertexVar(qv), dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: qv}}
			checkGrouped(t, sys, d.g, huge.Q6(), gc)
		}
	}
	plain := gen.PowerLaw(150, 4, 43)
	for _, c := range []struct {
		name string
		g    *huge.Graph
		q    *huge.Query
	}{
		{"vertex-labelled", gen.ZipfLabels(plain, 2, 0.5, 5), huge.Q6().WithVertexLabels([]int{0, 1, 0, 1, 0, 1})},
		{"edge-labelled", gen.ZipfEdgeLabels(plain, 2, 0.5, 6), huge.Q6().WithEdgeLabels([]int{0, 1, 0, 1, 0, 1, 0})},
	} {
		for _, machines := range []int{1, 2} {
			sys := huge.NewSystem(c.g, huge.Options{Machines: machines, Workers: 2})
			res, err := sys.Exec(ctx, c.q, huge.CountOnly()).Wait()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if want := baseline.GroundTruthCount(c.g, c.q); res.Count != want || want == 0 {
				t.Errorf("%s machines=%d: count %d, want %d (> 0)", c.name, machines, res.Count, want)
			}
			df, err := plan.TranslateCount(sys.Plan(c.q))
			if err != nil {
				t.Fatal(err)
			}
			if sep := df.Stages[len(df.Stages)-1].Separator; sep != dataflow.NoSeparator {
				t.Errorf("%s machines=%d: counted at separator %d\n%s", c.name, machines, sep, df)
			}
		}
	}
	sys := huge.NewSystem(testGraph(160, 3, 0, 67), huge.Options{Machines: 2, Workers: 2})
	for round := 0; round < 3; round++ {
		oldG, oldSess := sys.Graph(), sys.NewSession()
		sys.Apply(randomDelta(oldG, 30, 0, 1, int64(400+round)))
		checkDifferential(t, sys, oldSess, sys.NewSession(), oldG, sys.Graph(), huge.Q6())
	}
}
