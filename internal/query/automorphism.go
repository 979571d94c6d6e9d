package query

// Automorphism computation and symmetry breaking (Section 2 of the paper,
// method of Grochow & Kellis [28]): without constraints, each undirected
// embedding would be discovered once per automorphism of the query graph.
// We compute Aut(q) by backtracking over degree- and label-compatible
// permutations and derive partial orders that keep exactly one
// representative per orbit. For labelled queries an automorphism must
// preserve label constraints — vertex labels on vertices and edge labels
// on edges: two vertices with different labels, or two edges with
// different edge labels, are never exchanged, so labelling shrinks the
// group (and the derived orders).

// Automorphisms returns all automorphisms of q as permutations p where
// p[v] is the image of query vertex v. The identity is always included.
func Automorphisms(q *Query) [][]int {
	n := q.n
	perm := make([]int, n)
	used := make([]bool, n)
	var out [][]int
	var rec func(v int)
	rec = func(v int) {
		if v == n {
			cp := make([]int, n)
			copy(cp, perm)
			out = append(out, cp)
			return
		}
		for c := 0; c < n; c++ {
			if used[c] || len(q.adj[c]) != len(q.adj[v]) || q.Label(c) != q.Label(v) {
				continue
			}
			ok := true
			for _, u := range q.adj[v] {
				if u < v && (!q.HasEdge(c, perm[u]) ||
					q.EdgeLabelBetween(v, u) != q.EdgeLabelBetween(c, perm[u])) {
					ok = false
					break
				}
			}
			// Also reject mapped non-edges that become edges: count degrees
			// among mapped vertices.
			if ok {
				for u := 0; u < v; u++ {
					if !q.HasEdge(u, v) && q.HasEdge(perm[u], c) {
						ok = false
						break
					}
				}
			}
			if ok {
				perm[v] = c
				used[c] = true
				rec(v + 1)
				used[c] = false
			}
		}
	}
	rec(0)
	return out
}

// symmetryBreak derives partial-order constraints from Aut(q) along a
// stabiliser chain: repeatedly take as base the first vertex, in the
// priority prio (a permutation of q's vertices; nil is the identity), that
// some automorphism of the remaining group moves, add v < u for every u in
// v's orbit, then restrict to the stabiliser of v. Whatever the priority,
// the result admits exactly one ordered representative per embedding; the
// priority only decides which vertices the orders fall on.
func symmetryBreak(q *Query, prio []int) []Order {
	auts := Automorphisms(q)
	var orders []Order
	for len(auts) > 1 {
		// Find the first moved vertex in priority order.
		v := -1
		for i := 0; i < q.n && v < 0; i++ {
			cand := i
			if prio != nil {
				cand = prio[i]
			}
			for _, p := range auts {
				if p[cand] != cand {
					v = cand
					break
				}
			}
		}
		if v < 0 {
			break
		}
		orbit := map[int]bool{}
		for _, p := range auts {
			orbit[p[v]] = true
		}
		for u := range orbit {
			if u != v {
				orders = append(orders, Order{A: v, B: u})
			}
		}
		// Stabiliser of v.
		var stab [][]int
		for _, p := range auts {
			if p[v] == v {
				stab = append(stab, p)
			}
		}
		auts = stab
	}
	sortOrders(orders)
	return orders
}

func sortOrders(orders []Order) {
	for i := 1; i < len(orders); i++ {
		for j := i; j > 0; j-- {
			a, b := orders[j-1], orders[j]
			if a.A < b.A || (a.A == b.A && a.B <= b.B) {
				break
			}
			orders[j-1], orders[j] = b, a
		}
	}
}
