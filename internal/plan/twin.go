package plan

// Twin tails: the compression of Qiao et al. [63] applied where a pipeline
// ends. A twin class of q is k ≥ 2 query vertices that are pairwise
// non-adjacent, share their q-neighbourhood N, their vertex label and their
// edge labels towards N, are totally ordered among themselves, and share
// every symmetry-breaking order they have with a vertex outside the class.
// Once the rest of a match is fixed, each twin's candidates form one and
// the same set C, and the assignments the orders admit are exactly the
// k-subsets of C: a counting run adds C(|C|, k) instead of enumerating
// them. Berkholz, Keppeler & Schweikardt count conjunctive queries with
// inequalities the same way, by inclusion–exclusion over which variables
// may coincide.
//
// Translate marks a sink stage's twin tail on its extends (markTwinTail);
// the engine counts there when the run compresses. The cost model prices a
// tail at its prefix (twinCost), and Optimize offers the plans whose tail
// qualifies (twinCandidates).

import (
	"slices"

	"repro/internal/dataflow"
	"repro/internal/query"
)

// twinClass reports whether ts is a twin class of q.
func twinClass(q *query.Query, ts []int) bool {
	if len(ts) < 2 {
		return false
	}
	var tm uint32
	for _, t := range ts {
		tm |= 1 << t
	}
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
	orders := q.Orders()
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

// markTwinTail marks st's twin tail, if it has one: the K₂,ₖ shape when the
// whole stage qualifies, else the longest run of final extends that match
// a twin class over already-matched neighbours. The checks read the
// extends as translated — operands, labels, old-edge restrictions and
// orders towards the prefix must agree — so delta flows qualify exactly
// when their rewriting leaves the twins interchangeable.
func markTwinTail(q *query.Query, st *dataflow.Stage) {
	if k := wedgeTwins(q, st); k > 0 {
		st.Extends[0].TwinTail, st.Extends[0].TwinWedge = k, true
		return
	}
	for s := 0; s+2 <= len(st.Extends); s++ {
		if tailTwins(q, st.Extends[s:]) {
			st.Extends[s].TwinTail = len(st.Extends) - s
			return
		}
	}
}

// tailTwins reports whether the extends of tail, which end a stage, match a
// twin class whose neighbourhood the prefix before them has matched.
func tailTwins(q *query.Query, tail []*dataflow.Extend) bool {
	first := tail[0]
	for _, e := range tail {
		if e.IsVerify() || !slices.Equal(e.ExtSlots, first.ExtSlots) ||
			e.TargetLabel != first.TargetLabel || !slices.Equal(e.EdgeLabels, first.EdgeLabels) ||
			!slices.Equal(e.OldEdgeSlots, first.OldEdgeSlots) {
			return false
		}
	}
	// The operands are matched neighbours; as many as the twin has
	// neighbours means they are all of them.
	if len(first.ExtSlots) != q.Degree(first.TargetQV) {
		return false
	}
	width := len(first.OutLayout) - 1 // the prefix's slots
	ts := make([]int, len(tail))
	for i, e := range tail {
		if !sameOutsideOrders(e, first, width) {
			return false
		}
		ts[i] = e.TargetQV
	}
	return twinClass(q, ts)
}

// sameOutsideOrders reports whether e and f carry the same order filters
// against the first width slots — the orders a twin has with vertices
// outside its class. An extend holds each filter once.
func sameOutsideOrders(e, f *dataflow.Extend, width int) bool {
	n := 0
	for _, x := range e.NewFilters {
		if x.Slot < width {
			if !slices.Contains(f.NewFilters, x) {
				return false
			}
			n++
		}
	}
	for _, x := range f.NewFilters {
		if x.Slot < width {
			n--
		}
	}
	return n == 0
}

// wedgeTwins returns k when st counts q = K₂,ₖ in the wedge shape
// SCAN(c1–t) → EXTEND(t ⇒ c2) → EXTEND({c1, c2} ⇒ t′)…: c1 and c2
// non-adjacent, and the scanned t with every later target a twin class
// over {c1, c2}. It returns 0 otherwise.
func wedgeTwins(q *query.Query, st *dataflow.Stage) int {
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
	if !twinClass(q, ts) {
		return 0
	}
	return len(ts)
}

// twinCost prices a plan tree whose translated tail is a twin tail made of
// complete-star joins (one extend each) at its prefix, and reports false
// for any other tree. Nothing of the tail is materialised:
//
//   - a tail counted over a matched neighbourhood costs its prefix plus the
//     pulled adjacency, cost(q'_prefix) + k·|E_G| — one count per prefix
//     row replaces |R(q')|;
//   - a K₂,ₖ tail costs its wedge join, cost(edge) + |R(wedge)| + k·|E_G|:
//     each wedge bumps a counter instead of being produced, and the joins
//     above it cost nothing.
//
// rec prices a subtree without twin pricing.
func (c *Config) twinCost(p *Plan, rec func(*Node) subPlan) (float64, bool) {
	if !c.twinPriced() {
		return 0, false
	}
	df, err := Translate(p)
	if err != nil {
		return 0, false
	}
	st := df.Stages[len(df.Stages)-1]
	mark := slices.IndexFunc(st.Extends, func(e *dataflow.Extend) bool { return e.TwinTail > 0 })
	if mark < 0 {
		return 0, false
	}
	// Extend i of the stage's last n came from the (n-1-i)-th join down
	// the tree's left spine, provided each of those is a pulling wco join.
	n := len(st.Extends) - mark
	node := p.Root
	for i := 0; i < n; i++ {
		if node.IsLeaf() || node.Alg != WcoJoin || node.Comm != Pulling {
			return 0, false
		}
		if i < n-1 {
			node = node.Left
		}
	}
	if st.Extends[mark].TwinWedge {
		if !node.Left.IsLeaf() {
			return 0, false
		}
		return rec(node).cost, true
	}
	return rec(node.Left).cost + float64(c.NumMachines)*c.GraphEdges, true
}

// twinPriced reports whether the cost model prices twin tails: HUGE's own.
// The restricted plan spaces (Force*) and the computation-only planners
// (IgnoreComm) model SEED, EmptyHeaded and GraphFlow, which do not count
// this way.
func (c *Config) twinPriced() bool {
	return c.ForceAlg == nil && c.ForceComm == nil && !c.IgnoreComm
}

// twinCandidates returns the join trees whose translated tail is a twin
// tail, each built on the optimal plan of its prefix (build): for every
// twin class T whose neighbourhood the rest of q covers connectedly, that
// rest joined with one complete star per twin; and, when q is K₂,ₖ, the
// wedge shape for every scan edge c1–t with c1 < t (the scan's root is an
// edge's smaller endpoint).
func twinCandidates(q *query.Query, connected func(uint32) bool, build func(uint32) *Node) []*Node {
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
	for _, group := range twinGroups(q) {
		nb := q.Adj(group[0])
		for sub := uint32(3); sub < 1<<len(group); sub++ {
			ts := subset(group, sub)
			if len(ts) < 2 || !twinClass(q, ts) {
				continue
			}
			rest := full
			for _, t := range ts {
				rest &^= star(t, nb)
			}
			if rest == 0 || !connected(rest) || q.VerticesOfEdgeMask(rest)&vertexMask(nb) != vertexMask(nb) {
				continue
			}
			n := build(rest)
			for _, t := range ts {
				n = extend(n, t, nb)
			}
			out = append(out, n)
		}
		if len(nb) != 2 || len(group)+2 != q.NumVertices() || q.HasEdge(nb[0], nb[1]) || !twinClass(q, group) {
			continue
		}
		for _, cs := range [][2]int{{nb[0], nb[1]}, {nb[1], nb[0]}} {
			c1, c2 := cs[0], cs[1]
			for i, t := range group {
				if c1 > t {
					continue
				}
				n := extend(&Node{Edges: star(c1, []int{t})}, c2, []int{t})
				for j, u := range group {
					if j != i {
						n = extend(n, u, nb)
					}
				}
				out = append(out, n)
			}
		}
	}
	return out
}

// twinGroups partitions q's vertices by neighbourhood and returns the parts
// of two or more: the candidates for twin classes.
func twinGroups(q *query.Query) [][]int {
	var groups [][]int
	seen := uint32(0)
	for v := 0; v < q.NumVertices(); v++ {
		if seen&(1<<v) != 0 {
			continue
		}
		g := []int{v}
		for u := v + 1; u < q.NumVertices(); u++ {
			if seen&(1<<u) == 0 && slices.Equal(q.Adj(u), q.Adj(v)) {
				g = append(g, u)
				seen |= 1 << u
			}
		}
		if len(g) > 1 {
			groups = append(groups, g)
		}
	}
	return groups
}

// subset returns the members of group selected by the bits of sub.
func subset(group []int, sub uint32) []int {
	var out []int
	for i, v := range group {
		if sub&(1<<i) != 0 {
			out = append(out, v)
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
