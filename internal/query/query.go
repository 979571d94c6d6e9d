// Package query models query (pattern) graphs: small, connected undirected
// graphs — optionally with per-vertex label constraints — whose isomorphic
// embeddings are enumerated in the data graph. It computes automorphism
// groups and the symmetry-breaking partial orders the paper applies
// (Section 2, following Grochow–Kellis); label-distinguished vertices are
// never symmetric, so the derived orders stay sound for labelled patterns.
// It also provides the sub-query (edge-subset) helpers the optimiser's
// dynamic program iterates over.
package query

import (
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"sync"
)

// AnyLabel is the wildcard label constraint: the query vertex matches data
// vertices of every label.
const AnyLabel = -1

// MaxVertices bounds query size; the optimiser's DP and the automorphism
// search are exponential in it. 10 covers everything in the paper (q1–q8
// have at most 6 vertices).
const MaxVertices = 10

// MaxLabel bounds label constraints, matching the data graph's 16-bit
// label space (graph.LabelID).
const MaxLabel = 1<<16 - 1

// Order is one symmetry-breaking constraint: the data vertex matched to
// query vertex A must have a smaller ID than the one matched to B.
type Order struct{ A, B int }

// Query is an immutable connected query graph. Vertices are 0..N-1.
type Query struct {
	n       int
	edges   [][2]int // canonical: a < b, sorted
	adj     [][]int  // sorted neighbour lists
	name    string
	labels  []int // per-vertex label constraint (AnyLabel = wildcard); nil when unconstrained
	elabels []int // per-edge label constraint parallel to edges; nil when unconstrained

	// delta marks a delta-mode view created by Delta(): the engine
	// enumerates only the matches introduced (or removed) by the latest
	// applied graph delta instead of the full result.
	delta bool

	orders []Order // symmetry-breaking partial orders, derived from the structure

	fpOnce sync.Once // computes fp on the first Fingerprint call
	fp     string
}

// New builds a query graph from an edge list. Vertices are inferred as
// 0..max. It panics on self-loops, duplicate edges, disconnected graphs or
// graphs larger than MaxVertices — query graphs are programmer input.
func New(name string, edges [][2]int) *Query {
	return newQuery(name, edges, nil)
}

// NewLabeled builds a label-constrained query graph: labels[v] is the data
// label query vertex v must match, or AnyLabel for no constraint. labels
// must cover every vertex (len(labels) == number of vertices). A labels
// slice that is nil or all-wildcard yields a plain unlabelled query.
func NewLabeled(name string, edges [][2]int, labels []int) *Query {
	return newQuery(name, edges, labels)
}

// NewEdgeLabeled builds a query graph with both vertex- and edge-label
// constraints: elabels[i] is the data edge label that edges[i] must carry,
// or AnyLabel for no constraint (elabels parallels the edges argument as
// given, before canonicalisation). Either label slice may be nil; slices
// that are nil or all-wildcard leave that dimension unconstrained.
func NewEdgeLabeled(name string, edges [][2]int, labels, elabels []int) *Query {
	return newQueryEL(name, edges, labels, elabels)
}

func newQuery(name string, edges [][2]int, labels []int) *Query {
	return newQueryEL(name, edges, labels, nil)
}

func newQueryEL(name string, edges [][2]int, labels, elabels []int) *Query {
	if elabels != nil && len(elabels) != len(edges) {
		panic(fmt.Sprintf("query %s: %d edge labels for %d edges", name, len(elabels), len(edges)))
	}
	n := 0
	seen := map[[2]int]bool{}
	type canonEdge struct {
		e  [2]int
		el int
	}
	canon := make([]canonEdge, 0, len(edges))
	for i, e := range edges {
		a, b := e[0], e[1]
		if a == b {
			panic(fmt.Sprintf("query %s: self-loop on %d", name, a))
		}
		if a > b {
			a, b = b, a
		}
		if seen[[2]int{a, b}] {
			panic(fmt.Sprintf("query %s: duplicate edge (%d,%d)", name, a, b))
		}
		seen[[2]int{a, b}] = true
		el := AnyLabel
		if elabels != nil {
			el = elabels[i]
			if el < AnyLabel || el > MaxLabel {
				panic(fmt.Sprintf("query %s: edge (%d,%d) has invalid label %d", name, a, b, el))
			}
		}
		canon = append(canon, canonEdge{e: [2]int{a, b}, el: el})
		if b+1 > n {
			n = b + 1
		}
	}
	if n == 0 {
		panic("query: no edges")
	}
	if n > MaxVertices {
		panic(fmt.Sprintf("query %s: %d vertices exceeds MaxVertices=%d", name, n, MaxVertices))
	}
	slices.SortFunc(canon, func(a, b canonEdge) int {
		if a.e[0] != b.e[0] {
			return a.e[0] - b.e[0]
		}
		return a.e[1] - b.e[1]
	})
	canonEdges := make([][2]int, len(canon))
	eConstrained := false
	for i, ce := range canon {
		canonEdges[i] = ce.e
		if ce.el != AnyLabel {
			eConstrained = true
		}
	}
	q := &Query{n: n, edges: canonEdges, name: name}
	if eConstrained {
		q.elabels = make([]int, len(canon))
		for i, ce := range canon {
			q.elabels[i] = ce.el
		}
	}
	if labels != nil {
		if len(labels) != n {
			panic(fmt.Sprintf("query %s: %d labels for %d vertices", name, len(labels), n))
		}
		constrained := false
		for v, l := range labels {
			if l < AnyLabel || l > MaxLabel {
				panic(fmt.Sprintf("query %s: vertex %d has invalid label %d", name, v, l))
			}
			if l != AnyLabel {
				constrained = true
			}
		}
		if constrained {
			q.labels = append([]int(nil), labels...)
		}
	}
	q.adj = make([][]int, n)
	for _, e := range canonEdges {
		q.adj[e[0]] = append(q.adj[e[0]], e[1])
		q.adj[e[1]] = append(q.adj[e[1]], e[0])
	}
	for _, a := range q.adj {
		slices.Sort(a)
	}
	if !q.connectedMask(q.FullVertexMask()) {
		panic(fmt.Sprintf("query %s: not connected", name))
	}
	q.orders = symmetryBreak(q, nil)
	return q
}

// WithVertexLabels returns a labelled copy of q: same name, edges, edge
// labels and vertex numbering, with the given vertex label constraints
// (see NewLabeled). The copy derives its own symmetry-breaking orders —
// labelling can break symmetries, so the orders are generally a subset of
// q's.
func (q *Query) WithVertexLabels(labels []int) *Query {
	return newQueryEL(q.name, q.edges, labels, q.elabels)
}

// WithEdgeLabels returns an edge-label-constrained copy of q: same name,
// edges, vertex labels and numbering, with elabels[i] constraining the
// data edge label of q.Edges()[i] (AnyLabel = wildcard; the slice
// parallels the canonical edge order). Like vertex labelling, edge
// labelling can break symmetries, so the copy derives its own orders.
func (q *Query) WithEdgeLabels(elabels []int) *Query {
	return newQueryEL(q.name, q.edges, q.labels, elabels)
}

// Delta returns a delta-mode view of q: running it against a system that
// has applied a graph delta enumerates only the *change* in q's matches —
// embeddings that contain at least one updated edge — instead of the full
// result. The view shares q's structure, labels and symmetry-breaking
// orders, so it fingerprints like q. Delta-mode queries count; they are not
// cached as plans (the rewriting is linear in the query size, unlike the
// exponential optimiser).
func (q *Query) Delta() *Query {
	return &Query{n: q.n, edges: q.edges, adj: q.adj, name: q.name, labels: q.labels, elabels: q.elabels, orders: q.orders, delta: true}
}

// IsDelta reports whether this is a delta-mode view (see Delta).
func (q *Query) IsDelta() bool { return q.delta }

// NumVertices returns |V_q|.
func (q *Query) NumVertices() int { return q.n }

// NumEdges returns |E_q|.
func (q *Query) NumEdges() int { return len(q.edges) }

// Name returns the query's display name.
func (q *Query) Name() string { return q.name }

// Edges returns the canonical edge list (a<b, sorted). Do not modify.
func (q *Query) Edges() [][2]int { return q.edges }

// Adj returns the sorted neighbours of query vertex v. Do not modify.
func (q *Query) Adj(v int) []int { return q.adj[v] }

// Degree returns the degree of query vertex v.
func (q *Query) Degree(v int) int { return len(q.adj[v]) }

// Labeled reports whether any query vertex carries a label constraint.
func (q *Query) Labeled() bool { return q.labels != nil }

// Label returns the label constraint of query vertex v, or AnyLabel when v
// (or the whole query) is unconstrained.
func (q *Query) Label(v int) int {
	if q.labels == nil {
		return AnyLabel
	}
	return q.labels[v]
}

// VertexLabels returns the per-vertex label constraints (AnyLabel entries
// for wildcards), or nil for an unlabelled query. Do not modify.
func (q *Query) VertexLabels() []int { return q.labels }

// EdgeLabeled reports whether any query edge carries a label constraint.
func (q *Query) EdgeLabeled() bool { return q.elabels != nil }

// EdgeLabelAt returns the label constraint of canonical edge i (see
// Edges()), or AnyLabel when edge i — or the whole query — is
// unconstrained.
func (q *Query) EdgeLabelAt(i int) int {
	if q.elabels == nil {
		return AnyLabel
	}
	return q.elabels[i]
}

// EdgeLabelBetween returns the label constraint of the query edge (a, b),
// or AnyLabel when the edge is unconstrained. It panics if (a, b) is not a
// query edge — callers pass edges they already matched.
func (q *Query) EdgeLabelBetween(a, b int) int {
	if q.elabels == nil {
		return AnyLabel
	}
	if a > b {
		a, b = b, a
	}
	for i, e := range q.edges {
		if e[0] == a && e[1] == b {
			return q.elabels[i]
		}
	}
	panic(fmt.Sprintf("query %s: (%d,%d) is not an edge", q.name, a, b))
}

// EdgeLabels returns the per-edge label constraints parallel to Edges()
// (AnyLabel entries for wildcards), or nil for an edge-unlabelled query.
// Do not modify.
func (q *Query) EdgeLabels() []int { return q.elabels }

// HasEdge reports whether (a, b) is a query edge.
func (q *Query) HasEdge(a, b int) bool {
	for _, u := range q.adj[a] {
		if u == b {
			return true
		}
	}
	return false
}

// Orders returns the symmetry-breaking partial orders computed at
// construction — OrdersBy the identity priority, whose stabiliser chain
// takes the lowest-numbered moved vertex as each base. Each embedding of
// the pattern is counted exactly once when all constraints f(A) < f(B)
// hold. They define q's identity (Equal, the fingerprint) and the
// canonical assignment that streamed matches and group keys report. Do not
// modify the returned slice.
func (q *Query) Orders() []Order { return q.orders }

// OrdersBy returns the symmetry-breaking orders of the stabiliser chain
// whose bases come first in prio, a permutation of q's vertices: each base
// is the first vertex in prio that the remaining group moves. The set
// admits exactly one automorphic image of each embedding, as Orders does,
// but a different one, so it serves runs that only count. The identity
// priority returns Orders. It recomputes Aut(q) on every call.
func (q *Query) OrdersBy(prio []int) []Order {
	var seen uint32
	for _, v := range prio {
		if v >= 0 && v < q.n {
			seen |= 1 << v
		}
	}
	if len(prio) != q.n || seen != q.FullVertexMask() {
		panic(fmt.Sprintf("query %s: priority %v is not a permutation of its %d vertices", q.name, prio, q.n))
	}
	return symmetryBreak(q, prio)
}

// SameNumbering reports whether o has exactly the same vertex numbering as
// q: identical vertex count, edge list and symmetry-breaking orders (names
// are ignored). Plans built for one are valid verbatim for the other —
// including the per-query-vertex layout of enumerated matches — whereas a
// merely isomorphic query shares only the match count.
func (q *Query) SameNumbering(o *Query) bool {
	if q.n != o.n || len(q.edges) != len(o.edges) {
		return false
	}
	for i, e := range q.edges {
		if o.edges[i] != e {
			return false
		}
	}
	for v := 0; v < q.n; v++ {
		if q.Label(v) != o.Label(v) {
			return false
		}
	}
	for i := range q.edges {
		if q.EdgeLabelAt(i) != o.EdgeLabelAt(i) {
			return false
		}
	}
	return slices.Equal(q.orders, o.orders)
}

// String renders the query for logs: name(v=N, e=M; labels; orders).
func (q *Query) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s(v=%d,e=%d", q.name, q.n, len(q.edges))
	if q.labels != nil {
		sb.WriteString("; labels ")
		for v, l := range q.labels {
			if v > 0 {
				sb.WriteString(",")
			}
			if l == AnyLabel {
				sb.WriteString("*")
			} else {
				fmt.Fprintf(&sb, "%d", l)
			}
		}
	}
	if q.elabels != nil {
		sb.WriteString("; elabels ")
		for i, l := range q.elabels {
			if i > 0 {
				sb.WriteString(",")
			}
			if l == AnyLabel {
				sb.WriteString("*")
			} else {
				fmt.Fprintf(&sb, "%d", l)
			}
		}
	}
	if len(q.orders) > 0 {
		sb.WriteString("; ")
		for i, o := range q.orders {
			if i > 0 {
				sb.WriteString(",")
			}
			fmt.Fprintf(&sb, "v%d<v%d", o.A+1, o.B+1)
		}
	}
	sb.WriteString(")")
	return sb.String()
}

// FullVertexMask returns the bitmask with all query vertices set.
func (q *Query) FullVertexMask() uint32 { return (1 << q.n) - 1 }

// FullEdgeMask returns the bitmask with all query edges set.
func (q *Query) FullEdgeMask() uint32 { return (1 << len(q.edges)) - 1 }

// VerticesOfEdgeMask returns the vertex bitmask covered by an edge subset.
func (q *Query) VerticesOfEdgeMask(em uint32) uint32 {
	var vm uint32
	for em != 0 {
		i := bits.TrailingZeros32(em)
		em &= em - 1
		vm |= 1<<q.edges[i][0] | 1<<q.edges[i][1]
	}
	return vm
}

// EdgeMaskConnected reports whether the subgraph induced by the edge subset
// em is connected (over the vertices it covers).
func (q *Query) EdgeMaskConnected(em uint32) bool {
	if em == 0 {
		return false
	}
	first := bits.TrailingZeros32(em)
	frontier := uint32(1<<q.edges[first][0] | 1<<q.edges[first][1])
	remaining := em
	for {
		progressed := false
		rem := remaining
		for rem != 0 {
			i := bits.TrailingZeros32(rem)
			rem &= rem - 1
			a, b := uint32(1)<<q.edges[i][0], uint32(1)<<q.edges[i][1]
			if frontier&(a|b) != 0 {
				frontier |= a | b
				remaining &^= 1 << i
				progressed = true
			}
		}
		if remaining == 0 {
			return true
		}
		if !progressed {
			return false
		}
	}
}

// connectedMask reports whether the vertex set vm is connected in q.
func (q *Query) connectedMask(vm uint32) bool {
	if vm == 0 {
		return false
	}
	start := bits.TrailingZeros32(vm)
	visited := uint32(1) << start
	stack := []int{start}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, u := range q.adj[v] {
			b := uint32(1) << u
			if vm&b != 0 && visited&b == 0 {
				visited |= b
				stack = append(stack, u)
			}
		}
	}
	return visited == vm
}

// StarRoot inspects the edge subset em. If it forms a star (all edges share
// one common vertex; a single edge counts as a 1-star rooted at its smaller
// endpoint), it returns (root, leaves, true); otherwise ok is false.
func (q *Query) StarRoot(em uint32) (root int, leaves []int, ok bool) {
	var es [][2]int
	m := em
	for m != 0 {
		i := bits.TrailingZeros32(m)
		m &= m - 1
		es = append(es, q.edges[i])
	}
	if len(es) == 0 {
		return 0, nil, false
	}
	if len(es) == 1 {
		return es[0][0], []int{es[0][1]}, true
	}
	// Candidate roots are the endpoints of the first edge.
	for _, r := range []int{es[0][0], es[0][1]} {
		good := true
		var ls []int
		for _, e := range es {
			switch r {
			case e[0]:
				ls = append(ls, e[1])
			case e[1]:
				ls = append(ls, e[0])
			default:
				good = false
			}
			if !good {
				break
			}
		}
		if good {
			slices.Sort(ls)
			return r, ls, true
		}
	}
	return 0, nil, false
}

// IsClique reports whether q is a complete graph.
func (q *Query) IsClique() bool {
	return len(q.edges) == q.n*(q.n-1)/2
}
