package huge_test

// Differential property tests for engine-side aggregation: grouped counts
// from GroupBy runs — computed inside the compressed counting path, or at
// a materialised sink when the plan forbids compression — must match the
// ground-truth oracle group for group, on plain, vertex-labelled and
// edge-labelled graphs, for every key kind (VertexVar, VertexLabelOf,
// EdgeLabelOf). On delta views the per-group identity
// full(t)[k] + new[k] − dead[k] == full(t+1)[k] must hold under random
// update streams including label churn. Exercised by CI under -race
// (grouped sessions run concurrently with Apply below).

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"testing"

	"repro/gpm"
	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/exp"
	"repro/internal/gen"
)

// groupCase pairs a public GroupKey with the dataflow spec the oracle
// needs, so engine and oracle are provably keyed the same way.
type groupCase struct {
	name string
	key  huge.GroupKey
	spec dataflow.GroupSpec
}

// groupCasesFor builds one case per key kind, valid for q: group by the
// first query vertex, by the last vertex's label, and by the label of the
// query's first edge.
func groupCasesFor(q *huge.Query) []groupCase {
	last := q.NumVertices() - 1
	e := q.Edges()[0]
	return []groupCase{
		{"vertex", huge.VertexVar(0), dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: 0}},
		{"vlabel", huge.VertexLabelOf(last), dataflow.GroupSpec{Kind: dataflow.GroupByVertexLabel, QV: last}},
		{"elabel", huge.EdgeLabelOf(e[0], e[1]), dataflow.GroupSpec{Kind: dataflow.GroupByEdgeLabel, QA: e[0], QB: e[1]}},
	}
}

func groupMap(groups []huge.GroupCount) map[uint64]uint64 {
	m := map[uint64]uint64{}
	for _, g := range groups {
		if g.Count != 0 {
			m[g.Key] = g.Count
		}
	}
	return m
}

func sumGroups(groups []huge.GroupCount) uint64 {
	var n uint64
	for _, g := range groups {
		n += g.Count
	}
	return n
}

func diffGroupMaps(t *testing.T, ctxMsg string, got, want map[uint64]uint64) {
	t.Helper()
	for k, w := range want {
		if got[k] != w {
			t.Fatalf("%s: group %d: engine %d, oracle %d", ctxMsg, k, got[k], w)
		}
	}
	for k, g := range got {
		if _, ok := want[k]; !ok {
			t.Fatalf("%s: engine invented group %d (count %d)", ctxMsg, k, g)
		}
	}
}

// checkGrouped runs one grouped query and compares the group table (and
// its total) with the ground-truth oracle.
func checkGrouped(t *testing.T, sys *huge.System, g *huge.Graph, q *huge.Query, gc groupCase, opts ...huge.Option) {
	t.Helper()
	res, err := sys.Exec(context.Background(), q, append([]huge.Option{huge.GroupBy(gc.key)}, opts...)...).Wait()
	if err != nil {
		t.Fatalf("%s/%s: %v", q.Name(), gc.name, err)
	}
	want := baseline.GroundTruthGroupedCount(g, q, gc.spec)
	diffGroupMaps(t, q.Name()+"/"+gc.name, groupMap(res.Groups), want)
	if got := sumGroups(res.Groups); got != res.Count {
		t.Fatalf("%s/%s: groups sum to %d, Count is %d", q.Name(), gc.name, got, res.Count)
	}
	if want := baseline.GroundTruthCount(g, q); res.Count != want {
		t.Fatalf("%s/%s: total %d, oracle %d", q.Name(), gc.name, res.Count, want)
	}
}

// TestGroupedCountsMatchOracle: every key kind, every benchmark query,
// against plain, vertex-labelled and edge-labelled graphs. The grouped
// run must produce exactly the oracle's per-group table.
func TestGroupedCountsMatchOracle(t *testing.T) {
	base := gen.PowerLaw(220, 3, 11)
	for _, tc := range []struct {
		name string
		g    *huge.Graph
	}{
		{"plain", base},
		{"vlabelled", gen.ZipfLabels(base, 5, 1.5, 12)},
		{"elabelled", gen.ZipfEdgeLabels(gen.ZipfLabels(base, 4, 1.5, 12), 3, 1.5, 13)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := huge.NewSystem(tc.g, huge.Options{Machines: 3, Workers: 2})
			queries := []*huge.Query{
				huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q3(), huge.Q4(),
				huge.Q5(), huge.Q6(), huge.Q7(), huge.Q8(),
			}
			for _, q := range queries {
				for _, gc := range groupCasesFor(q) {
					checkGrouped(t, sys, tc.g, q, gc)
				}
			}
		})
	}
}

// TestGroupedGPMPatterns: the gpm pattern catalogue (every connected
// 3- and 4-vertex pattern) grouped by hub vertex and by community label.
func TestGroupedGPMPatterns(t *testing.T) {
	g := gen.CommunityLabels(gen.PowerLaw(200, 3, 17), 8, 19)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	for _, k := range []int{3, 4} {
		for _, q := range gpm.ConnectedPatterns(k) {
			for _, gc := range groupCasesFor(q)[:2] { // vertex + vlabel keys
				checkGrouped(t, sys, g, q, gc)
			}
		}
	}
}

// TestGroupedDeltaIdentityPerGroup: after a random delta (edge churn plus
// label churn), the per-group identity
// full(t)[k] + new[k] − dead[k] == full(t+1)[k] must hold for every key,
// with both fulls checked against the oracle on their own snapshots.
func TestGroupedDeltaIdentityPerGroup(t *testing.T) {
	g := testGraph(240, 3, 4, 51)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	ctx := context.Background()
	queries := []*huge.Query{huge.Triangle(), huge.Q2(), huge.Q4()}
	for round := 0; round < 2; round++ {
		oldG := sys.Graph()
		oldSess := sys.NewSession()
		d := randomDelta(oldG, 25, 3, 4, int64(300+round))
		sys.Apply(d)
		newSess := sys.NewSession()
		newG := sys.Graph()
		for _, q := range queries {
			for _, gc := range groupCasesFor(q) {
				oldRes, err := oldSess.Exec(ctx, q, huge.GroupBy(gc.key)).Wait()
				if err != nil {
					t.Fatalf("%s/%s: old run: %v", q.Name(), gc.name, err)
				}
				newRes, err := newSess.Exec(ctx, q, huge.GroupBy(gc.key)).Wait()
				if err != nil {
					t.Fatalf("%s/%s: new run: %v", q.Name(), gc.name, err)
				}
				deltaRes, err := newSess.Exec(ctx, q.Delta(), huge.GroupBy(gc.key)).Wait()
				if err != nil {
					t.Fatalf("%s/%s: delta run: %v", q.Name(), gc.name, err)
				}
				wantOld := baseline.GroundTruthGroupedCount(oldG, q, gc.spec)
				wantNew := baseline.GroundTruthGroupedCount(newG, q, gc.spec)
				msg := q.Name() + "/" + gc.name
				diffGroupMaps(t, msg+"/full(t)", groupMap(oldRes.Groups), wantOld)
				diffGroupMaps(t, msg+"/full(t+1)", groupMap(newRes.Groups), wantNew)
				// Per-group identity: dead keys are evaluated on the previous
				// snapshot (labels as of t), new keys on the current one, so
				// label churn moves a match between groups via one dead + one
				// new tally and the identity stays exact per key.
				keys := map[uint64]bool{}
				for k := range wantOld {
					keys[k] = true
				}
				for k := range wantNew {
					keys[k] = true
				}
				var sumNew, sumDead uint64
				perNew, perDead := map[uint64]uint64{}, map[uint64]uint64{}
				for _, gr := range deltaRes.Groups {
					keys[gr.Key] = true
					perNew[gr.Key], perDead[gr.Key] = gr.Count, gr.Dead
					sumNew += gr.Count
					sumDead += gr.Dead
				}
				for k := range keys {
					got := int64(wantOld[k]) + int64(perNew[k]) - int64(perDead[k])
					if got != int64(wantNew[k]) {
						t.Fatalf("%s: group %d identity broke: old %d + new %d - dead %d = %d, want %d",
							msg, k, wantOld[k], perNew[k], perDead[k], got, wantNew[k])
					}
				}
				if sumNew != deltaRes.DeltaNew || sumDead != deltaRes.DeltaDead {
					t.Fatalf("%s: group sums (new %d, dead %d) disagree with DeltaNew %d / DeltaDead %d",
						msg, sumNew, sumDead, deltaRes.DeltaNew, deltaRes.DeltaDead)
				}
			}
		}
	}
}

// TestGroupByLimitGrantedShare: under Limit(k) the budget caps the total
// and the groups see exactly the granted share — the per-group counts sum
// to min(k, total) and never exceed the group's full count.
func TestGroupByLimitGrantedShare(t *testing.T) {
	g := gen.ZipfLabels(gen.PowerLaw(200, 3, 23), 6, 1.5, 24)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()
	for _, q := range []*huge.Query{huge.Triangle(), huge.Q4()} {
		for _, gc := range groupCasesFor(q) {
			full := baseline.GroundTruthGroupedCount(g, q, gc.spec)
			total := baseline.GroundTruthCount(g, q)
			for _, k := range []uint64{1, 7, total, total + 50} {
				res, err := sys.Exec(ctx, q, huge.GroupBy(gc.key), huge.Limit(int(k))).Wait()
				if err != nil {
					t.Fatalf("%s/%s limit %d: %v", q.Name(), gc.name, k, err)
				}
				want := min(k, total)
				if got := sumGroups(res.Groups); got != want || res.Count != want {
					t.Fatalf("%s/%s limit %d: groups sum %d, Count %d, want %d",
						q.Name(), gc.name, k, got, res.Count, want)
				}
				for _, gr := range res.Groups {
					if gr.Count > full[gr.Key] {
						t.Fatalf("%s/%s limit %d: group %d granted %d, full count only %d",
							q.Name(), gc.name, k, gr.Key, gr.Count, full[gr.Key])
					}
				}
			}
		}
	}
}

// TestTopGroupsAndHistogram: TopGroups must be exactly the oracle table's
// k best groups (count descending, ties by ascending key), and Histogram
// the log2 histogram over ALL groups — computed before the top-k
// truncation, so both compose in one run.
func TestTopGroupsAndHistogram(t *testing.T) {
	g := gen.PowerLaw(220, 3, 31)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	q := huge.Triangle()
	gc := groupCasesFor(q)[0] // VertexVar(0): one group per triangle apex
	want := baseline.GroundTruthGroupedCount(g, q, gc.spec)

	type kv struct{ k, c uint64 }
	ranked := make([]kv, 0, len(want))
	for k, c := range want {
		ranked = append(ranked, kv{k, c})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].c != ranked[j].c {
			return ranked[i].c > ranked[j].c
		}
		return ranked[i].k < ranked[j].k
	})
	const buckets = 8
	wantHist := make([]uint64, buckets)
	for _, e := range ranked {
		b := bits.Len64(e.c) - 1
		if b >= buckets {
			b = buckets - 1
		}
		wantHist[b]++
	}

	for _, topK := range []int{1, 5, len(ranked), len(ranked) + 10} {
		res, err := sys.Exec(context.Background(), q,
			huge.GroupBy(gc.key), huge.TopGroups(topK), huge.Histogram(buckets)).Wait()
		if err != nil {
			t.Fatalf("top %d: %v", topK, err)
		}
		wantLen := min(topK, len(ranked))
		if len(res.Groups) != wantLen {
			t.Fatalf("top %d: got %d groups, want %d", topK, len(res.Groups), wantLen)
		}
		for i, gr := range res.Groups {
			if gr.Key != ranked[i].k || gr.Count != ranked[i].c {
				t.Fatalf("top %d: rank %d is (key %d, count %d), want (key %d, count %d)",
					topK, i, gr.Key, gr.Count, ranked[i].k, ranked[i].c)
			}
		}
		if len(res.Hist) != buckets {
			t.Fatalf("top %d: histogram has %d buckets, want %d", topK, len(res.Hist), buckets)
		}
		for b := range wantHist {
			if res.Hist[b] != wantHist[b] {
				t.Fatalf("top %d: hist bucket %d is %d, want %d (histogram must be pre-truncation)",
					topK, b, res.Hist[b], wantHist[b])
			}
		}
	}
}

// TestGroupedMaterialisedSinkPaths: grouping must also be exact when the
// compressed counting path does NOT apply — under a hand-picked plan whose
// final operator materialises at the sink: a join terminal ("seed") or a
// pipeline ending in a verify extend ("rads").
func TestGroupedMaterialisedSinkPaths(t *testing.T) {
	g := gen.ZipfLabels(gen.PowerLaw(200, 3, 41), 5, 1.5, 42)
	queries := []*huge.Query{huge.Triangle(), huge.Q4()}

	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	for _, q := range queries {
		var plans []*huge.Plan
		for _, family := range []string{"seed", "rads"} {
			p, err := exp.FamilyPlan(g, q, family, 2)
			if err != nil {
				t.Fatalf("%s: %v", q.Name(), err)
			}
			plans = append(plans, p)
		}
		for _, p := range append(plans, sys.PlanFor(q, "optimal")) {
			for _, gc := range groupCasesFor(q) {
				checkGrouped(t, sys, g, q, gc, huge.WithPlan(p))
			}
		}
	}
}

// TestGroupedStreamIsCountingRun: a grouped Stream never carries matches —
// like CountOnly, the iterator reports exhaustion immediately and Wait
// delivers the groups.
func TestGroupedStreamIsCountingRun(t *testing.T) {
	g := gen.PowerLaw(150, 3, 61)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	st := sys.Exec(context.Background(), huge.Triangle(), huge.GroupBy(huge.VertexVar(0)))
	if m, ok := st.Next(); ok {
		t.Fatalf("grouped stream yielded a match %v", m)
	}
	res, err := st.Wait()
	if err != nil {
		t.Fatalf("wait: %v", err)
	}
	if len(res.Groups) == 0 || res.Count == 0 {
		t.Fatalf("grouped run found nothing: count %d, %d groups", res.Count, len(res.Groups))
	}
}

// TestGroupOptionErrors: every invalid aggregation option combination must
// surface as an error from Stream.Wait, not a silent misrun.
func TestGroupOptionErrors(t *testing.T) {
	g := gen.PowerLaw(100, 3, 71)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()
	tri := huge.Triangle()
	for name, st := range map[string]*huge.Stream{
		"histogram without groupby": sys.Exec(ctx, tri, huge.Histogram(4)),
		"topgroups without groupby": sys.Exec(ctx, tri, huge.TopGroups(3)),
		"groupby with onmatch": sys.Exec(ctx, tri,
			huge.GroupBy(huge.VertexVar(0)), huge.OnMatch(func([]huge.VertexID) {})),
		"negative vertex var":     sys.Exec(ctx, tri, huge.GroupBy(huge.VertexVar(-1))),
		"vertex var out of range": sys.Exec(ctx, tri, huge.GroupBy(huge.VertexVar(3))),
		"vlabel out of range":     sys.Exec(ctx, tri, huge.GroupBy(huge.VertexLabelOf(7))),
		"edge label non-edge": sys.Exec(ctx,
			huge.NewQuery("p3", [][2]int{{0, 1}, {1, 2}}), huge.GroupBy(huge.EdgeLabelOf(0, 2))),
		"edge label self-loop":   sys.Exec(ctx, tri, huge.GroupBy(huge.EdgeLabelOf(1, 1))),
		"edge label negative":    sys.Exec(ctx, tri, huge.GroupBy(huge.EdgeLabelOf(0, -2))),
		"zero histogram buckets": sys.Exec(ctx, tri, huge.GroupBy(huge.VertexVar(0)), huge.Histogram(0)),
		"zero top groups":        sys.Exec(ctx, tri, huge.GroupBy(huge.VertexVar(0)), huge.TopGroups(0)),
	} {
		if _, err := st.Wait(); err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// TestGroupedExecDuringApply runs grouped queries concurrently with graph
// updates — the -race exercise for the worker-local group tables and the
// shared merge aggregate. Each run's internal consistency (groups summing
// to its Count) must hold whichever snapshot it landed on.
func TestGroupedExecDuringApply(t *testing.T) {
	g := testGraph(200, 3, 4, 81)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			sys.Apply(randomDelta(sys.Graph(), 15, 2, 4, int64(900+i)))
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				res, err := sys.Exec(ctx, huge.Triangle(),
					huge.GroupBy(huge.VertexLabelOf(0)), huge.TopGroups(5)).Wait()
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				if sum := sumGroups(res.Groups); res.Count > 0 && sum == 0 {
					t.Errorf("worker %d: count %d but empty groups", w, res.Count)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
