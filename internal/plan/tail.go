package plan

// Independent tails: the compression of Qiao et al. [63] applied where a
// pipeline ends. A tail is the last k extends of a sink stage whose
// targets have every q-neighbour matched before the tail: they are then
// pairwise non-adjacent, and once the prefix row is fixed each draws from
// one candidate set. A counting run adds the row's injective,
// order-respecting picks from those sets in closed form instead of
// enumerating them — the inclusion–exclusion over which variables may
// coincide by which Berkholz, Keppeler & Schweikardt count conjunctive
// queries with inequalities:
//
//   - k = 1: |S|, the final extension's count (left unmarked);
//   - k twins (one set, totally ordered): C(|S|, k);
//   - two sets without an order between them: |S_a|·|S_b| − |S_a ∩ S_b|;
//   - two sets with one order a < b: #{(x, y) : x ∈ S_a, y ∈ S_b, x < y}.
//
// Any other tail (three distinct sets, a partial order) is left to run.
// Translate marks a sink stage's tail on its extends (markTail); the
// engine counts there when the run compresses. The cost model prices a
// tail of two or more at its prefix (tailCost), and Optimize offers the
// plans whose tail qualifies (tailCandidates).
//
// Two patterns are counted whole, at a separator: a pair of query vertices
// whose removal leaves isomorphic sides of one or two vertices
// (dataflow.Separator). Per image of the separator each side's
// completions P are built once, and the sides' vertex-disjoint picks from
// P are added in closed form, the same inclusion–exclusion over colliding
// variables applied at a 2-vertex cut as ESCAPE does
// (https://arxiv.org/abs/1610.09411):
//
//   - K₂,ₖ, cut at its non-adjacent pair (c1, c2): P = N(c1) ∩ N(c2),
//     C(|P|, k);
//   - the ladder q6, cut at its middle rung (a, b): P holds the pairs
//     (x, y), x ∈ N(a)∖{b}, y ∈ N(b)∖{a}, x ~ y, and two completions
//     collide only as the same pair or as one the other reversed, so the
//     vertex-disjoint ordered pairs number
//     |P|² + |P| + R − Σc² − Σd² − 2·Σc·d for c_z, d_z the pairs with z
//     first or second and R the pairs whose reverse is in P. The rung's
//     count is half that, under the break that orders the rung first
//     (TranslateCount);
//   - the 5-path q7, cut at its middle edge (a, b): each side is a 2-path
//     a–x–x′ or b–y–y′, and a vertex of one side meets one of the other in
//     four ways (x = y, x = y′, x′ = y, x′ = y′), of which only the pairs
//     x = y with x′ = y′ and x = y′ with x′ = y can happen at once. With
//     c(v) = |N(v)∖{a, b}|, A = Σ_{x ∈ N(a)∖b} c(x), B likewise for b, P
//     the rung's pairs and w_a(z) = |N(z) ∩ N(a)∖{b}|, the edge's images
//     number A·B − Σ_{x ∈ N(a)∩N(b)} (deg x − 2)² − Σ_P c(x) − Σ_P c(y)
//     − Σ_{z ∉ {a,b}} w_a(z)·w_b(z) + Σ_{x ∈ N(a)∩N(b)} (deg x − 2) + |P|,
//     under the break that orders the middle edge (TranslateCount).

import (
	"math/bits"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/query"
)

// twinClass reports whether ts is a twin class of q: k ≥ 2 query vertices
// that are pairwise non-adjacent, share their q-neighbourhood N, their
// vertex label and their edge labels towards N, are totally ordered among
// themselves, and share every symmetry-breaking order they have with a
// vertex outside the class. Their picks from one set are its k-subsets.
func twinClass(q *query.Query, orders []query.Order, ts []int) bool {
	if len(ts) < 2 {
		return false
	}
	tm := vertexMask(ts)
	t0, nb := ts[0], q.Adj(ts[0])
	for _, u := range nb {
		if tm&(1<<u) != 0 {
			return false
		}
	}
	for _, t := range ts[1:] {
		if !slices.Equal(q.Adj(t), nb) || q.Label(t) != q.Label(t0) {
			return false
		}
		for _, u := range nb {
			if q.EdgeLabelBetween(t, u) != q.EdgeLabelBetween(t0, u) {
				return false
			}
		}
	}
	var less [query.MaxVertices]uint32 // less[a]: twins ordered after a
	for _, o := range orders {
		inA, inB := tm&(1<<o.A) != 0, tm&(1<<o.B) != 0
		switch {
		case inA && inB:
			less[o.A] |= 1 << o.B
		case inA || inB:
			for _, t := range ts {
				shared := query.Order{A: t, B: o.B}
				if inB {
					shared = query.Order{A: o.A, B: t}
				}
				if !slices.Contains(orders, shared) {
					return false
				}
			}
		}
	}
	for range ts { // transitive closure over at most MaxVertices twins
		for _, a := range ts {
			for _, b := range ts {
				if less[a]&(1<<b) != 0 {
					less[a] |= less[b]
				}
			}
		}
	}
	for i, a := range ts {
		for _, b := range ts[i+1:] {
			if less[a]&(1<<b) == 0 && less[b]&(1<<a) == 0 {
				return false
			}
		}
	}
	return true
}

// markTail marks what st counts in closed form, if anything: a separator
// when the whole stage is one (markSeparator), else the longest run of
// final extends that countable reports, if it has two or more. The checks
// read the extends as translated — operands, labels, old-edge restrictions
// and orders towards the prefix — so delta flows qualify exactly as their
// rewriting leaves them.
func markTail(q *query.Query, orders []query.Order, st *dataflow.Stage) {
	if markSeparator(q, orders, st) {
		return
	}
	for s := 0; s+2 <= len(st.Extends); s++ {
		if countable(q, orders, st, s) {
			st.Extends[s].Tail = len(st.Extends) - s
			return
		}
	}
}

// countable reports whether st's extends from the k-th on are a tail with
// a closed form: one the engine can count (dataflow.Stage.CountableTail)
// whose every target reads its whole q-neighbourhood, with two targets or
// a twin class drawing from one set.
func countable(q *query.Query, orders []query.Order, st *dataflow.Stage, k int) bool {
	if !st.CountableTail(k) {
		return false
	}
	tail := st.Extends[k:]
	ts := make([]int, len(tail))
	for i, e := range tail {
		if len(e.ExtSlots) != q.Degree(e.TargetQV) {
			return false
		}
		ts[i] = e.TargetQV
	}
	return len(tail) == 2 || twinClass(q, orders, ts)
}

// markSeparator marks st with the separator it counts at, if any, and
// reports whether it did: the operators must have the shape the engine
// relies on (dataflow.Stage.SeparatorShaped), and q and the orders the
// shape's closed form.
func markSeparator(q *query.Query, orders []query.Order, st *dataflow.Stage) bool {
	if st.Separator = dataflow.WedgeSeparator; st.SeparatorShaped() && wedgeTwins(q, orders, st) {
		return true
	}
	if st.Separator = dataflow.RungSeparator; st.SeparatorShaped() && ladderRung(q, orders, st) {
		return true
	}
	if st.Separator = dataflow.PathSeparator; st.SeparatorShaped() && pathMiddle(q, orders, st) {
		return true
	}
	st.Separator = dataflow.NoSeparator
	return false
}

// wedgeTwins reports whether st, of the wedge shape SCAN(c1–t) →
// EXTEND(t ⇒ c2) → EXTEND({c1, c2} ⇒ t′)…, counts q = K₂,ₖ: c1 and c2
// non-adjacent, and the scanned t with every later target a twin class
// over {c1, c2}.
func wedgeTwins(q *query.Query, orders []query.Order, st *dataflow.Stage) bool {
	ext := st.Extends
	if q.NumVertices() != len(ext)+2 {
		return false
	}
	c1, t, c2 := st.SourceLayout[0], st.SourceLayout[1], ext[0].TargetQV
	if q.Degree(t) != 2 || q.HasEdge(c1, c2) || !q.HasEdge(t, c2) {
		return false
	}
	ts := []int{t}
	for _, e := range ext[1:] {
		ts = append(ts, e.TargetQV)
	}
	return twinClass(q, orders, ts)
}

// ladderRung reports whether st, of the rung shape SCAN(a–b) → x1 → y1 →
// x2 → y2, counts q: the unlabelled ladder with middle rung a–b and rails
// x1–a–x2 and y1–b–y2, under two orders — the rung's and x1's against x2,
// which the shape's filters then hold.
func ladderRung(q *query.Query, orders []query.Order, st *dataflow.Stage) bool {
	l := st.OutputLayout()
	if _, _, ok := ladder(q); !ok || len(orders) != 2 {
		return false
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {2, 3}, {3, 1}, {0, 4}, {4, 5}, {5, 1}} {
		if !q.HasEdge(l[e[0]], l[e[1]]) {
			return false
		}
	}
	return true
}

// ladder reports whether q is the unlabelled 3-rung ladder and returns its
// middle rung (a, b), a < b, and its sides (x, y), x ~ a and y ~ b, the
// side with the smaller x first.
func ladder(q *query.Query) (rung [2]int, sides [2][2]int, ok bool) {
	if q.NumVertices() != 6 || q.NumEdges() != 7 || q.Labeled() || q.EdgeLabeled() {
		return rung, sides, false
	}
	for _, e := range q.Edges() {
		a, b := min(e[0], e[1]), max(e[0], e[1])
		if q.Degree(a) != 3 || q.Degree(b) != 3 {
			continue
		}
		n := 0
		for _, x := range q.Adj(a) {
			if x == b || q.Degree(x) != 2 {
				continue
			}
			for _, y := range q.Adj(x) {
				if y != a && y != b && q.Degree(y) == 2 && q.HasEdge(y, b) && n < 2 {
					sides[n] = [2]int{x, y}
					n++
				}
			}
		}
		if n == 2 && sides[0][1] != sides[1][1] {
			if sides[1][0] < sides[0][0] {
				sides[0], sides[1] = sides[1], sides[0]
			}
			return [2]int{a, b}, sides, true
		}
	}
	return rung, sides, false
}

// pathMiddle reports whether st, of the path shape SCAN(a–b) → x → y →
// x′ → y′, counts q: the unlabelled 5-path x′–x–a–b–y–y′ under one order,
// the middle edge's, which the shape's scan filter then holds.
func pathMiddle(q *query.Query, orders []query.Order, st *dataflow.Stage) bool {
	l := st.OutputLayout()
	if _, _, ok := fivePath(q); !ok || len(orders) != 1 {
		return false
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {3, 5}} {
		if !q.HasEdge(l[e[0]], l[e[1]]) {
			return false
		}
	}
	return true
}

// fivePath reports whether q is the unlabelled 5-path and returns its
// middle edge (a, b), a < b, and its sides (x, x′), x ~ a, and (y, y′),
// y ~ b.
func fivePath(q *query.Query) (mid [2]int, sides [2][2]int, ok bool) {
	if q.NumVertices() != 6 || q.NumEdges() != 5 || q.Labeled() || q.EdgeLabeled() {
		return mid, sides, false
	}
	path := []int{-1} // walked from an end: a path iff it reaches 6 vertices
	for v := range 6 {
		if q.Degree(v) == 1 {
			path[0] = v
		}
	}
	if path[0] < 0 {
		return mid, sides, false
	}
	for prev := -1; len(path) < 6; {
		v, next := path[len(path)-1], -1
		for _, u := range q.Adj(v) {
			if u != prev {
				next = u
			}
		}
		if next < 0 || q.Degree(v) > 2 || slices.Contains(path, next) {
			return mid, sides, false
		}
		prev, path = v, append(path, next)
	}
	if path[2] > path[3] {
		slices.Reverse(path)
	}
	return [2]int{path[2], path[3]}, [2][2]int{{path[1], path[0]}, {path[4], path[5]}}, true
}

// tailCost prices a plan tree whose translated tail of two or more is made
// of complete-star joins (one extend each) at its prefix, and reports false
// for any other tree. Nothing of the tail is materialised:
//
//   - twins over a matched neighbourhood cost their prefix plus the pulled
//     adjacency, cost(q'_prefix) + k·|E_G| — one count per prefix row
//     replaces |R(q')|;
//   - a pair of different sets also builds both sets per prefix row, as
//     extending the prefix by either target alone would: it adds
//     |R(q'_prefix ∪ star(a))| + |R(q'_prefix ∪ star(b))|;
//   - a separator costs its first join, cost(edge) + |R(edge ⋈ star)| +
//     k·|E_G|, and the joins above it nothing: K₂,ₖ's wedge c1–t–c2 bumps
//     a counter instead of being produced, the ladder's x–a–b is one
//     intersection N(x) ∩ N(b) that adds the side completions through x,
//     and the 5-path's x–a–b is one step of the tally over a's 2-hop.
//
// A ladder or a 5-path is priced as its counting translation marks it
// (separatorBreak).
// rec prices a subtree without tail pricing.
func (c *Config) tailCost(p *Plan, rec func(*Node) subPlan) (float64, bool) {
	if !c.tailPriced() {
		return 0, false
	}
	df, err := Translate(p)
	if err != nil {
		return 0, false
	}
	if alt := separatorBreak(p, df); alt != nil {
		df = alt
	}
	st := df.Stages[len(df.Stages)-1]
	mark := 0
	if st.Separator == dataflow.NoSeparator {
		if mark = slices.IndexFunc(st.Extends, func(e *dataflow.Extend) bool { return e.Tail > 0 }); mark < 0 {
			return 0, false
		}
	}
	// Extend i of the stage's last n came from the (n-1-i)-th join down
	// the tree's left spine, provided each of those is a pulling wco join.
	tail := st.Extends[mark:]
	n := len(tail)
	spine := make([]*Node, n)
	node := p.Root
	for i := range spine {
		if node.IsLeaf() || node.Alg != WcoJoin || node.Comm != Pulling {
			return 0, false
		}
		spine[i] = node
		if i < n-1 {
			node = node.Left
		}
	}
	if st.Separator != dataflow.NoSeparator {
		if !node.Left.IsLeaf() {
			return 0, false
		}
		return rec(node).cost, true
	}
	prefix := node.Left
	cost := rec(prefix).cost + float64(c.NumMachines)*c.GraphEdges
	if n == 2 && !tail[0].SameCandidates(tail[1], len(tail[0].OutLayout)-1) {
		for _, j := range spine {
			cost += c.Card(p.Q, prefix.Edges|j.Right.Edges)
		}
	}
	return cost, true
}

// tailPriced reports whether the cost model prices tails: HUGE's own. The
// restricted plan spaces (Force*) and the computation-only planners
// (IgnoreComm) model SEED, EmptyHeaded and GraphFlow, which do not count
// this way.
func (c *Config) tailPriced() bool {
	return c.ForceAlg == nil && c.ForceComm == nil && !c.IgnoreComm
}

// tailCandidates returns the join trees whose translated tail qualifies,
// each built on the optimal plan of its prefix (build): for every pair of
// non-adjacent vertices and every twin class T whose neighbourhoods the
// rest of q covers connectedly, that rest joined with one complete star
// per member of T; when q is K₂,ₖ, the wedge shape for every scan edge
// c1–t with c1 < t (the scan's root is an edge's smaller endpoint); when
// q is the ladder, its middle rung a–b, a < b, then x1, y1, x2, y2 side
// by side; and, when q is the 5-path, its middle edge a–b, a < b, then x,
// y, x′, y′ — both x's before the ends, so that a run enumerating this
// tree under q's own orders still counts the ends x′, y′ as a pair tail.
func tailCandidates(q *query.Query, connected func(uint32) bool, build func(uint32) *Node) []*Node {
	n := q.NumVertices()
	full := q.FullEdgeMask()
	star := func(t int, leaves []int) uint32 {
		var em uint32
		for _, u := range leaves {
			em |= 1 << edgeIndex(q, t, u)
		}
		return em
	}
	extend := func(n *Node, t int, leaves []int) *Node {
		em := star(t, leaves)
		return &Node{Edges: n.Edges | em, Left: n, Right: &Node{Edges: em}, Alg: WcoJoin, Comm: Pulling}
	}
	var out []*Node
	for tm := uint32(3); tm < 1<<n; tm++ {
		if bits.OnesCount32(tm) < 2 {
			continue
		}
		var ts []int
		for v := 0; v < n; v++ {
			if tm&(1<<v) != 0 {
				ts = append(ts, v)
			}
		}
		twins := twinClass(q, q.Orders(), ts)
		if !twins && (len(ts) > 2 || q.HasEdge(ts[0], ts[1])) {
			continue
		}
		rest, nbm := full, uint32(0)
		for _, t := range ts {
			rest &^= star(t, q.Adj(t))
			nbm |= vertexMask(q.Adj(t))
		}
		if rest != 0 && connected(rest) && q.VerticesOfEdgeMask(rest)&nbm == nbm {
			node := build(rest)
			for _, t := range ts {
				node = extend(node, t, q.Adj(t))
			}
			out = append(out, node)
		}
		nb := q.Adj(ts[0])
		if !twins || len(nb) != 2 || len(ts)+2 != n || q.HasEdge(nb[0], nb[1]) {
			continue
		}
		for _, cs := range [][2]int{{nb[0], nb[1]}, {nb[1], nb[0]}} {
			c1, c2 := cs[0], cs[1]
			for i, t := range ts {
				if c1 > t {
					continue
				}
				node := extend(&Node{Edges: star(c1, []int{t})}, c2, []int{t})
				for j, u := range ts {
					if j != i {
						node = extend(node, u, nb)
					}
				}
				out = append(out, node)
			}
		}
	}
	if rung, sides, ok := ladder(q); ok {
		a, b := rung[0], rung[1]
		node := &Node{Edges: star(a, []int{b})}
		for _, s := range sides {
			node = extend(extend(node, s[0], []int{a}), s[1], []int{s[0], b})
		}
		out = append(out, node)
	}
	if mid, sides, ok := fivePath(q); ok {
		x, y := sides[0], sides[1]
		node := extend(extend(&Node{Edges: star(mid[0], []int{mid[1]})}, x[0], mid[:1]), y[0], mid[1:])
		out = append(out, extend(extend(node, x[1], x[:1]), y[1], y[:1]))
	}
	return out
}

// vertexMask returns the bitmask of the vertices vs.
func vertexMask(vs []int) uint32 {
	var m uint32
	for _, v := range vs {
		m |= 1 << v
	}
	return m
}
