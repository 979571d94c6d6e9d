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

// markTail marks st's tail, if it has one of two or more: the K₂,ₖ shape
// when the whole stage qualifies, else the longest run of final extends
// that countable reports. The checks read the extends as translated —
// operands, labels, old-edge restrictions and orders towards the prefix —
// so delta flows qualify exactly as their rewriting leaves them.
func markTail(q *query.Query, orders []query.Order, st *dataflow.Stage) {
	if k := wedgeTwins(q, orders, st); k > 0 {
		st.Extends[0].Tail, st.Extends[0].TwinWedge = k, true
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

// wedgeTwins returns k when st counts q = K₂,ₖ in the wedge shape
// SCAN(c1–t) → EXTEND(t ⇒ c2) → EXTEND({c1, c2} ⇒ t′)…: c1 and c2
// non-adjacent, and the scanned t with every later target a twin class
// over {c1, c2}. It returns 0 otherwise.
func wedgeTwins(q *query.Query, orders []query.Order, st *dataflow.Stage) int {
	ext := st.Extends
	if st.Scan == nil || len(ext) < 2 || q.NumVertices() != len(ext)+2 {
		return 0
	}
	c1, t := st.SourceLayout[0], st.SourceLayout[1]
	wedge := ext[0]
	if wedge.IsVerify() || !slices.Equal(wedge.ExtSlots, []int{1}) || q.Degree(t) != 2 {
		return 0
	}
	c2 := wedge.TargetQV
	if q.HasEdge(c1, c2) || !q.HasEdge(t, c2) {
		return 0
	}
	ts := []int{t}
	for _, e := range ext[1:] {
		if e.IsVerify() || len(e.OldEdgeSlots) > 0 || len(e.ExtSlots) != 2 ||
			!slices.Contains(e.ExtSlots, 0) || !slices.Contains(e.ExtSlots, 2) {
			return 0
		}
		ts = append(ts, e.TargetQV)
	}
	if !twinClass(q, orders, ts) {
		return 0
	}
	return len(ts)
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
//   - a K₂,ₖ tail costs its wedge join, cost(edge) + |R(wedge)| + k·|E_G|:
//     each wedge bumps a counter instead of being produced, and the joins
//     above it cost nothing.
//
// rec prices a subtree without tail pricing.
func (c *Config) tailCost(p *Plan, rec func(*Node) subPlan) (float64, bool) {
	if !c.tailPriced() {
		return 0, false
	}
	df, err := Translate(p)
	if err != nil {
		return 0, false
	}
	st := df.Stages[len(df.Stages)-1]
	mark := slices.IndexFunc(st.Extends, func(e *dataflow.Extend) bool { return e.Tail > 0 })
	if mark < 0 {
		return 0, false
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
	if tail[0].TwinWedge {
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
// per member of T; and, when q is K₂,ₖ, the wedge shape for every scan
// edge c1–t with c1 < t (the scan's root is an edge's smaller endpoint).
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
