package plan

import (
	"math"

	"repro/internal/query"
)

// This file derives the logical plans of the systems the paper compares
// against (Table 2). Remark 3.2: existing works plug into HUGE via their
// logical plans; HUGE's optimiser then configures the physical settings.
//
//	StarJoin:  star units, left-deep, hash join, pushing
//	SEED:      star units, bushy,     hash join, pushing
//	BiGJoin:   limited stars, left-deep, wco join, pushing
//	BENU:      limited stars, left-deep (DFS order), wco join, pulling
//	RADS:      star units, left-deep, hash join, pulling

// MatchingOrder returns a vertex matching order for left-deep wco plans:
// start at the highest-degree query vertex, then greedily add the vertex
// with the most already-matched neighbours (ties: higher degree, then lower
// ID). Every prefix is connected.
func MatchingOrder(q *query.Query) []int {
	return MatchingOrderStats(q, GraphStats{})
}

// MatchingOrderStats is MatchingOrder informed by label frequencies:
// rare-label-first — and, for edge-label-constrained queries,
// rare-edge-first. The start vertex minimises its seed share — its vertex
// label share times the share of its rarest constrained incident edge
// label (the fraction of the graph an index-seeded scan anchored there
// walks) — with degree as the tie-breaker. Each greedy step still
// maximises matched-neighbour count (connectivity dominates — every
// extension is an intersection) but breaks ties toward the rarer combined
// selectivity: vertex label share times the shares of the edge labels the
// step closes. With zero stats (or an unlabelled query) every share is 1
// and the order is identical to the label-free heuristic.
func MatchingOrderStats(q *query.Query, stats GraphStats) []int {
	n := q.NumVertices()
	share := func(v int) float64 {
		l := q.Label(v)
		if l < 0 || stats.N == 0 {
			return 1
		}
		return stats.LabelShare(l)
	}
	// One marginal-count pass over the triple stats up front: the share
	// lookups below run O(n·deg) times per order computation.
	es := newEdgeSelectivity(stats)
	eshare := func(v, u int) float64 {
		l := q.EdgeLabelBetween(v, u)
		if l < 0 || stats.N == 0 || stats.M == 0 {
			return 1
		}
		if es.marginal == nil {
			if l == 0 {
				return 1 // edge-unlabelled graph: every edge carries label 0
			}
			return 0.5 / float64(stats.M)
		}
		return math.Max(es.marginal[l], 0.5) / float64(stats.M)
	}
	seedShare := func(v int) float64 {
		s := share(v)
		rarest := 1.0
		for _, u := range q.Adj(v) {
			if es := eshare(v, u); es < rarest {
				rarest = es
			}
		}
		return s * rarest
	}
	stepShare := func(v int, matched []bool) float64 {
		s := share(v)
		for _, u := range q.Adj(v) {
			if matched[u] {
				s *= eshare(v, u)
			}
		}
		return s
	}
	order := make([]int, 0, n)
	matched := make([]bool, n)
	start, startShare := 0, seedShare(0)
	for v := 1; v < n; v++ {
		if sv := seedShare(v); sv < startShare || (sv == startShare && q.Degree(v) > q.Degree(start)) {
			start, startShare = v, sv
		}
	}
	order = append(order, start)
	matched[start] = true
	for len(order) < n {
		best, bestConn := -1, -1
		for v := 0; v < n; v++ {
			if matched[v] {
				continue
			}
			conn := 0
			for _, u := range q.Adj(v) {
				if matched[u] {
					conn++
				}
			}
			if conn == 0 {
				continue
			}
			better := conn > bestConn
			if conn == bestConn {
				sv, sb := stepShare(v, matched), stepShare(best, matched)
				better = sv < sb || (sv == sb && q.Degree(v) > q.Degree(best))
			}
			if better {
				best, bestConn = v, conn
			}
		}
		order = append(order, best)
		matched[best] = true
	}
	return order
}

// edgeIndex returns the index of query edge (a,b) in q.Edges().
func edgeIndex(q *query.Query, a, b int) int {
	if a > b {
		a, b = b, a
	}
	for i, e := range q.Edges() {
		if e[0] == a && e[1] == b {
			return i
		}
	}
	panic("plan: edge not in query")
}

// leftDeepWco builds the left-deep sequence of complete star joins that a
// wco join with the given matching order performs (Section 3.1, Example
// 3.1): the i-th join extends the prefix by vertex order[i] via the star of
// its matched neighbours.
func leftDeepWco(q *query.Query, order []int, comm CommMode) *Node {
	matched := make([]bool, q.NumVertices())
	matched[order[0]] = true
	var cur *Node
	for i := 1; i < len(order); i++ {
		v := order[i]
		var starMask uint32
		for _, u := range q.Adj(v) {
			if matched[u] {
				starMask |= 1 << edgeIndex(q, v, u)
			}
		}
		unit := &Node{Edges: starMask}
		if cur == nil {
			cur = unit
		} else {
			cur = &Node{
				Edges: cur.Edges | starMask,
				Left:  cur, Right: unit,
				Alg: WcoJoin, Comm: comm,
			}
		}
		matched[v] = true
	}
	return cur
}

// BENUPlan is BENU's logical plan: the same left-deep wco joins but in DFS
// matching order, pulled from the external store.
func BENUPlan(q *query.Query) *Plan {
	// DFS order over the query from the max-degree vertex.
	n := q.NumVertices()
	start := 0
	for v := 1; v < n; v++ {
		if q.Degree(v) > q.Degree(start) {
			start = v
		}
	}
	visited := make([]bool, n)
	var order []int
	var dfs func(v int)
	dfs = func(v int) {
		visited[v] = true
		order = append(order, v)
		for _, u := range q.Adj(v) {
			if !visited[u] {
				dfs(u)
			}
		}
	}
	dfs(start)
	return &Plan{Q: q, Root: leftDeepWco(q, order, Pulling), Name: "benu"}
}

// HugeWcoPlanStats (HUGE−WCO in the experiments) is BiGJoin's logical plan
// with physical settings reconfigured by Equation 3 — every complete star
// join becomes a pulling wco join — in a label-frequency-informed matching
// order (rare-label-first; see MatchingOrderStats). Zero stats give the
// label-free greedy order.
func HugeWcoPlanStats(q *query.Query, stats GraphStats) *Plan {
	return &Plan{Q: q, Root: leftDeepWco(q, MatchingOrderStats(q, stats), Pulling), Name: "huge-wco"}
}

// starDecomposition covers the query with stars in RADS's "star-expand"
// style: the first star is rooted at the highest-degree vertex; every
// subsequent star is rooted at an already-matched vertex (so its expansion
// can be computed after pulling just the root's neighbours) and takes all
// of that root's uncovered incident edges.
func starDecomposition(q *query.Query) []uint32 {
	covered := uint32(0)
	full := q.FullEdgeMask()
	var units []uint32
	var matched uint32
	r0 := 0
	for v := 1; v < q.NumVertices(); v++ {
		if q.Degree(v) > q.Degree(r0) {
			r0 = v
		}
	}
	uncoveredStar := func(r int) (uint32, int) {
		var mask uint32
		size := 0
		for _, u := range q.Adj(r) {
			ei := uint32(1) << edgeIndex(q, r, u)
			if covered&ei == 0 {
				mask |= ei
				size++
			}
		}
		return mask, size
	}
	take := func(r int) {
		mask, _ := uncoveredStar(r)
		units = append(units, mask)
		covered |= mask
		matched |= q.VerticesOfEdgeMask(mask)
	}
	take(r0)
	for covered != full {
		best, bestSize := -1, 0
		for v := 0; v < q.NumVertices(); v++ {
			if matched&(1<<v) == 0 {
				continue
			}
			if _, size := uncoveredStar(v); size > bestSize {
				best, bestSize = v, size
			}
		}
		if best < 0 {
			panic("plan: star decomposition stuck on connected query (unreachable)")
		}
		take(best)
	}
	return units
}

// leftDeepUnits folds star units into a left-deep join tree.
func leftDeepUnits(q *query.Query, units []uint32, alg JoinAlg, comm CommMode) *Node {
	cur := &Node{Edges: units[0]}
	for _, u := range units[1:] {
		unit := &Node{Edges: u}
		cur = &Node{Edges: cur.Edges | u, Left: cur, Right: unit, Alg: alg, Comm: comm}
	}
	return cur
}

// RADSPlan: star units, left-deep, hash join, pulling (star-expand-and-
// verify). The star roots are constrained to already-matched vertices,
// which starDecomposition + connected ordering guarantees.
func RADSPlan(q *query.Query) *Plan {
	return &Plan{Q: q, Root: leftDeepUnits(q, starDecomposition(q), HashJoin, Pulling), Name: "rads"}
}

// SEEDPlan: bushy hash join over star units with pushing communication —
// Algorithm 1 restricted to SEED's plan space.
func SEEDPlan(q *query.Query, card CardFunc) *Plan {
	alg, comm := HashJoin, Pushing
	p := Optimize(q, Config{NumMachines: 1, GraphEdges: 0, Card: card, ForceAlg: &alg, ForceComm: &comm})
	p.Name = "seed"
	return p
}

// EmptyHeadedPlan: hybrid wco/hash plan optimised for computation only
// (sequential context, Example 3.2), with Equation 3 deciding physical
// settings afterwards.
func EmptyHeadedPlan(q *query.Query, card CardFunc) *Plan {
	p := Optimize(q, Config{NumMachines: 1, GraphEdges: 0, Card: card, IgnoreComm: true})
	p.Name = "emptyheaded"
	return p
}

// GraphFlowPlan: like EmptyHeaded but with the coarser Erdős–Rényi
// estimator, yielding GraphFlow's (sometimes different) hybrid plans.
func GraphFlowPlan(q *query.Query, stats GraphStats) *Plan {
	p := Optimize(q, Config{NumMachines: 1, GraphEdges: 0, Card: ERRandomGraphEstimator(stats), IgnoreComm: true})
	p.Name = "graphflow"
	return p
}

// ReconfigurePhysical re-derives every internal node's physical settings by
// Equation 3 — this is how a baseline's logical plan is "plugged into" HUGE
// (Remark 3.2).
func ReconfigurePhysical(p *Plan) *Plan {
	var rec func(n *Node) *Node
	rec = func(n *Node) *Node {
		if n.IsLeaf() {
			return n
		}
		l, r := rec(n.Left), rec(n.Right)
		nl, nr, alg, comm := Configure(p.Q, l, r)
		return &Node{Edges: n.Edges, Left: nl, Right: nr, Alg: alg, Comm: comm}
	}
	return &Plan{Q: p.Q, Root: rec(p.Root), Cost: p.Cost, Name: "huge-" + p.Name}
}
