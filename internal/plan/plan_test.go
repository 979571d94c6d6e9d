package plan

import (
	"math"
	"math/bits"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/query"
)

func testStats(t *testing.T) GraphStats {
	t.Helper()
	return ComputeStats(gen.PowerLaw(2000, 6, 11))
}

func optimizeAll(t *testing.T, card CardFunc) []*Plan {
	t.Helper()
	var plans []*Plan
	for _, q := range query.Catalog() {
		plans = append(plans, Optimize(q, Config{NumMachines: 4, GraphEdges: 12000, Card: card}))
	}
	return plans
}

// checkTree verifies a join tree is well-formed: leaves are stars, every
// internal node's children partition its edges, the root covers the query.
func checkTree(t *testing.T, q *query.Query, n *Node) {
	t.Helper()
	if n.IsLeaf() {
		if _, _, ok := q.StarRoot(n.Edges); !ok {
			t.Fatalf("%s: leaf %b is not a star", q.Name(), n.Edges)
		}
		return
	}
	if n.Left.Edges&n.Right.Edges != 0 {
		t.Fatalf("%s: children share edges", q.Name())
	}
	if n.Left.Edges|n.Right.Edges != n.Edges {
		t.Fatalf("%s: children do not cover node", q.Name())
	}
	if !q.EdgeMaskConnected(n.Edges) {
		t.Fatalf("%s: node %b disconnected", q.Name(), n.Edges)
	}
	checkTree(t, q, n.Left)
	checkTree(t, q, n.Right)
}

func TestOptimizeProducesValidTrees(t *testing.T) {
	stats := testStats(t)
	for _, card := range []CardFunc{MomentEstimator(stats), ERRandomGraphEstimator(stats)} {
		for _, p := range optimizeAll(t, card) {
			if p.Root.Edges != p.Q.FullEdgeMask() {
				t.Fatalf("%s: root does not cover query", p.Q.Name())
			}
			checkTree(t, p.Q, p.Root)
			if p.Cost <= 0 {
				t.Fatalf("%s: non-positive cost %f", p.Q.Name(), p.Cost)
			}
		}
	}
}

func TestOptimizePhysicalSettingsRespectEquation3(t *testing.T) {
	stats := testStats(t)
	for _, p := range optimizeAll(t, MomentEstimator(stats)) {
		var rec func(n *Node)
		rec = func(n *Node) {
			if n.IsLeaf() {
				return
			}
			_, _, alg, comm := Configure(p.Q, n.Left, n.Right)
			if alg != n.Alg || comm != n.Comm {
				t.Fatalf("%s: node settings (%s,%s) disagree with Equation 3 (%s,%s)",
					p.Q.Name(), n.Alg, n.Comm, alg, comm)
			}
			rec(n.Left)
			rec(n.Right)
		}
		rec(p.Root)
	}
}

func TestConfigureCompleteStarJoin(t *testing.T) {
	q := query.Triangle() // edges (0,1),(0,2),(1,2)
	// Left = edge (0,1); right = star(2; 0,1) = edges (0,2),(1,2).
	var e01, star uint32
	for i, e := range q.Edges() {
		if e == [2]int{0, 1} {
			e01 = 1 << i
		} else {
			star |= 1 << i
		}
	}
	l, r := &Node{Edges: e01}, &Node{Edges: star}
	_, _, alg, comm := Configure(q, l, r)
	if alg != WcoJoin || comm != Pulling {
		t.Fatalf("complete star join configured as (%s,%s)", alg, comm)
	}
	// Commutativity: with the arguments swapped the join must still be
	// classified as a complete star join, and the returned right side must
	// be a star whose leaves are covered by the returned left side.
	nl, nr, alg2, comm2 := Configure(q, r, l)
	if alg2 != WcoJoin || comm2 != Pulling {
		t.Fatalf("swapped star join configured as (%s,%s)", alg2, comm2)
	}
	lv := q.VerticesOfEdgeMask(nl.Edges)
	found := false
	for _, o := range starOrientations(q, nr.Edges) {
		ok := true
		for _, leaf := range o.Leaves {
			if lv&(1<<leaf) == 0 {
				ok = false
			}
		}
		if ok {
			found = true
		}
	}
	if !found {
		t.Fatal("Configure returned a right side that is not a complete star w.r.t. the left")
	}
}

func TestConfigurePushingFallback(t *testing.T) {
	q := query.Q7() // 5-path: v0-v1-v2-v3-v4-v5
	// Left = path edges (0,1),(1,2); right = path edges (3,4),(4,5):
	// neither side is a star containing the other's vertices -> pushing.
	var l, r uint32
	for i, e := range q.Edges() {
		switch e {
		case [2]int{0, 1}, [2]int{1, 2}:
			l |= 1 << i
		case [2]int{3, 4}, [2]int{4, 5}:
			r |= 1 << i
		}
	}
	// Note: right IS a star (4; 3,5) but its root 4 and leaves are not in
	// left, so neither pulling condition holds.
	_, _, alg, comm := Configure(q, &Node{Edges: l}, &Node{Edges: r})
	if alg != HashJoin || comm != Pushing {
		t.Fatalf("disjoint-path join configured as (%s,%s), want (hash,pushing)", alg, comm)
	}
}

func TestTranslateCatalog(t *testing.T) {
	stats := testStats(t)
	card := MomentEstimator(stats)
	for _, q := range query.Catalog() {
		for _, mk := range []func() *Plan{
			func() *Plan { return Optimize(q, Config{NumMachines: 4, GraphEdges: 12000, Card: card}) },
			func() *Plan { return HugeWcoPlanStats(q, GraphStats{}) },
			func() *Plan { return ReconfigurePhysical(RADSPlan(q)) },
			func() *Plan { return ReconfigurePhysical(SEEDPlan(q, card)) },
			func() *Plan { return ReconfigurePhysical(BENUPlan(q)) },
			func() *Plan { return ReconfigurePhysical(EmptyHeadedPlan(q, card)) },
			func() *Plan { return ReconfigurePhysical(GraphFlowPlan(q, stats)) },
		} {
			p := mk()
			d, err := Translate(p)
			if err != nil {
				t.Fatalf("%s / %s: %v", q.Name(), p.Name, err)
			}
			// Every query edge must be enforced by at least one operator.
			enforced := enforcedEdges(d)
			for _, e := range q.Edges() {
				if enforced[e] == 0 {
					t.Fatalf("%s / %s: edge %v never enforced:\n%s", q.Name(), p.Name, e, d)
				}
			}
		}
	}
}

func TestTranslateLeftDeepWcoIsSinglePipeline(t *testing.T) {
	for _, q := range query.Catalog() {
		p := HugeWcoPlanStats(q, GraphStats{})
		d, err := Translate(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Stages) != 1 {
			t.Fatalf("%s: wco plan translated to %d stages, want 1:\n%s", q.Name(), len(d.Stages), d)
		}
		// One extend per vertex beyond the first two.
		nonVerify := 0
		for _, e := range d.Stages[0].Extends {
			if !e.IsVerify() {
				nonVerify++
			}
		}
		if nonVerify != q.NumVertices()-2 {
			t.Fatalf("%s: %d extends, want %d", q.Name(), nonVerify, q.NumVertices()-2)
		}
	}
}

func TestTranslateRejectsPushingWco(t *testing.T) {
	q := query.Triangle()
	p := bigJoinPlan(q) // native BiGJoin: wco + pushing
	if _, err := Translate(p); err == nil {
		t.Fatal("expected error translating (wco, pushing) plan")
	} else if !strings.Contains(err.Error(), "BiGJoin") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMatchingOrderConnectedPrefixes(t *testing.T) {
	for _, q := range query.Catalog() {
		order := MatchingOrder(q)
		if len(order) != q.NumVertices() {
			t.Fatalf("%s: order has %d vertices", q.Name(), len(order))
		}
		matched := map[int]bool{order[0]: true}
		for _, v := range order[1:] {
			conn := false
			for _, u := range q.Adj(v) {
				if matched[u] {
					conn = true
				}
			}
			if !conn {
				t.Fatalf("%s: vertex v%d extends a disconnected prefix", q.Name(), v+1)
			}
			matched[v] = true
		}
	}
}

func TestStarDecompositionCoversOnce(t *testing.T) {
	for _, q := range query.Catalog() {
		units := starDecomposition(q)
		var covered uint32
		for _, u := range units {
			if covered&u != 0 {
				t.Fatalf("%s: star units overlap", q.Name())
			}
			if _, _, ok := q.StarRoot(u); !ok {
				t.Fatalf("%s: unit %b not a star", q.Name(), u)
			}
			covered |= u
		}
		if covered != q.FullEdgeMask() {
			t.Fatalf("%s: units cover %b of %b", q.Name(), covered, q.FullEdgeMask())
		}
	}
}

func TestMomentEstimatorMonotonicInEdges(t *testing.T) {
	stats := testStats(t)
	card := MomentEstimator(stats)
	q := query.Q3() // 4-clique
	// Adding an edge to a subquery on the same vertices must not increase
	// the estimate (each edge multiplies by a probability <= 1... in the
	// moment model, by m_{d+1}/m_d / m_1 per endpoint).
	full := q.FullEdgeMask()
	est := card(q, full)
	for i := 0; i < bits.OnesCount32(full); i++ {
		sub := full &^ (1 << i)
		if card(q, sub) < est*0.999 {
			t.Fatalf("removing an edge decreased the estimate: %g -> %g", card(q, sub), est)
		}
	}
}

func TestEstimatorsPositive(t *testing.T) {
	stats := testStats(t)
	for _, card := range []CardFunc{MomentEstimator(stats), ERRandomGraphEstimator(stats)} {
		for _, q := range query.Catalog() {
			for em := uint32(1); em <= q.FullEdgeMask(); em++ {
				if !q.EdgeMaskConnected(em) {
					continue
				}
				if c := card(q, em); c < 1 {
					t.Fatalf("%s mask %b: estimate %g < 1", q.Name(), em, c)
				}
			}
		}
	}
}

func TestSEEDPlanIsAllPushingHash(t *testing.T) {
	stats := testStats(t)
	p := SEEDPlan(query.Q1(), MomentEstimator(stats))
	var rec func(n *Node)
	rec = func(n *Node) {
		if n.IsLeaf() {
			return
		}
		if n.Alg != HashJoin || n.Comm != Pushing {
			t.Fatalf("SEED node has settings (%s,%s)", n.Alg, n.Comm)
		}
		rec(n.Left)
		rec(n.Right)
	}
	rec(p.Root)
}

// treeString renders a plan's join tree without its header line, so pins
// do not depend on the cost figure.
func treeString(p *Plan) string {
	_, tree, _ := strings.Cut(p.String(), "\n")
	return tree
}

// firstUnit returns the leaf a plan's pipeline starts from: the leftmost
// one, the only unit that is scanned rather than pulled.
func firstUnit(p *Plan) *Node {
	n := p.Root
	for !n.IsLeaf() {
		n = n.Left
	}
	return n
}

// TestCostOfAgreesWithOptimize checks that CostOf is the DP's own cost
// function: re-pricing the optimiser's tree gives the optimiser's figure,
// and hand-built plans get a positive one instead of 0.
func TestCostOfAgreesWithOptimize(t *testing.T) {
	stats := testStats(t)
	for _, cfg := range []Config{
		{NumMachines: 4, GraphEdges: 12000, Card: MomentEstimator(stats)},
		{NumMachines: 1, GraphEdges: 12000, Card: ERRandomGraphEstimator(stats)},
		{NumMachines: 1, Card: MomentEstimator(stats), IgnoreComm: true},
	} {
		for _, q := range query.Catalog() {
			p := Optimize(q, cfg)
			if got := CostOf(p, cfg); math.Abs(got-p.Cost) > 1e-9*p.Cost {
				t.Fatalf("%s: CostOf(Optimize) = %g, Optimize says %g", q.Name(), got, p.Cost)
			}
			// Plans configured by Equation 3 lie inside the DP's space and
			// cannot beat it; the native pushing plans just need a price.
			for _, hand := range []*Plan{HugeWcoPlanStats(q, stats), ReconfigurePhysical(RADSPlan(q))} {
				if c := CostOf(hand, cfg); c < p.Cost*(1-1e-9) {
					t.Fatalf("%s: %s plan priced %g, below the optimum %g", q.Name(), hand.Name, c, p.Cost)
				}
			}
			for _, hand := range []*Plan{starJoinPlan(q), bigJoinPlan(q)} {
				if c := CostOf(hand, cfg); c <= 0 {
					t.Fatalf("%s / %s: CostOf = %g", q.Name(), hand.Name, c)
				}
			}
		}
	}
}

// TestOptimizePinnedPlans pins the plans the tracked benchmark depends on.
// A pulling join does not pay for its right star, so triangle, q2 and q3
// must scan a single edge and intersect the rest (at the parent commit the
// tie between "edge ⋈ wedge" and "wedge ⋈ edge" fell to scanning the
// wedge); q7 must scan its middle edge and extend the 2-paths beside it,
// the plan a counting run counts at that edge, not Exp-9's 3-path ⋈ 2-path
// PUSH-JOIN; q6 must
// scan its middle rung and extend the sides beside it, the plan a counting
// run counts at the rung.
func TestOptimizePinnedPlans(t *testing.T) {
	for _, ds := range []string{"LJ", "OR", "EU"} {
		g := gen.ByName(ds, 1)
		cfg := Config{NumMachines: 1, GraphEdges: float64(g.NumEdges()), Card: MomentEstimator(ComputeStats(g))}
		for _, q := range []*query.Query{query.Triangle(), query.Q2(), query.Q3()} {
			p := Optimize(q, cfg)
			if u := firstUnit(p); bits.OnesCount32(u.Edges) != 1 {
				t.Errorf("%s %s starts from a %d-edge unit, want a single edge:\n%s", ds, q.Name(), bits.OnesCount32(u.Edges), p)
			}
		}
		cfg.NumMachines = 2
		if p := Optimize(query.Q7(), cfg); treeString(p) != q7PathTree {
			t.Errorf("%s q7 plan changed:\n%swant\n%s", ds, p, q7PathTree)
		}
		if p := Optimize(query.Q6(), cfg); treeString(p) != q6RungTree {
			t.Errorf("%s q6 plan changed:\n%swant\n%s", ds, p, q6RungTree)
		}
	}
}

// TestBaselinePlanSpacesPinned pins what the restricted plan spaces give
// under the executed-cost model. SEED (hash + pushing only) pays for both
// sides of every join exactly as before, so its join trees are the same up
// to the order of two children: a forced push is symmetric, and the tree
// now keeps the DP's enumeration order where it used to move a would-be
// star to the right. EmptyHeaded and GraphFlow (computation only, physical
// settings by Equation 3 afterwards) changed with the optimiser and for
// its reason: their wco joins no longer pay for the star they intersect,
// so the triangle starts from an edge and the prism is one wco pipeline
// instead of two triangles hash-joined.
func TestBaselinePlanSpacesPinned(t *testing.T) {
	stats := testStats(t)
	card := MomentEstimator(stats)
	pins := []struct {
		p    *Plan
		want string
	}{
		{SEEDPlan(query.Triangle(), card), `  join [hash, pushing] vmask=111
    unit star(v2; v1,v3)
    unit star(v1; v3)
`},
		{SEEDPlan(query.Q7(), card), `  join [hash, pushing] vmask=111111
    join [hash, pushing] vmask=1111
      unit star(v2; v1,v3)
      unit star(v3; v4)
    unit star(v5; v4,v6)
`},
		{EmptyHeadedPlan(query.Triangle(), card), `  join [wco, pulling] vmask=111
    unit star(v1; v3)
    unit star(v2; v1,v3)
`},
		{GraphFlowPlan(query.Triangle(), stats), `  join [wco, pulling] vmask=111
    unit star(v1; v3)
    unit star(v2; v1,v3)
`},
		{EmptyHeadedPlan(query.Q8(), card), `  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=111011
      join [wco, pulling] vmask=11011
        unit star(v2; v1,v5)
        unit star(v4; v1,v5)
      unit star(v6; v4,v5)
    unit star(v3; v1,v2,v6)
`},
	}
	for _, pin := range pins {
		if got := treeString(pin.p); got != pin.want {
			t.Errorf("%s for %s:\n%swant\n%s", pin.p.Name, pin.p.Q.Name(), got, pin.want)
		}
	}
}

func TestPlanString(t *testing.T) {
	stats := testStats(t)
	p := Optimize(query.Q1(), Config{NumMachines: 4, GraphEdges: 1000, Card: MomentEstimator(stats)})
	s := p.String()
	if !strings.Contains(s, "huge-optimal") || !strings.Contains(s, "star") {
		t.Fatalf("Plan.String output unexpected: %s", s)
	}
}

func TestDataflowStringAndValidate(t *testing.T) {
	p := HugeWcoPlanStats(query.Q1(), GraphStats{})
	d, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	s := d.String()
	if !strings.Contains(s, "SCAN") || !strings.Contains(s, "SINK") {
		t.Fatalf("dataflow string: %s", s)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
}
