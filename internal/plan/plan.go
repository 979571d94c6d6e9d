// Package plan implements HUGE's optimiser (Section 3 of the paper): the
// logical join-based framework over star join units, the dynamic-programming
// search for an optimal bushy join order (Algorithm 1), the physical
// configuration of each join — hash vs worst-case-optimal algorithm,
// pushing vs pulling communication (Equation 3) — and the translation of an
// execution plan into an executable dataflow (Algorithm 2 plus the
// bounded-memory rewrites of Section 5.2).
package plan

import (
	"fmt"
	"strings"

	"repro/internal/query"
)

// JoinAlg is the physical join algorithm of a two-way join.
type JoinAlg int

const (
	HashJoin JoinAlg = iota
	WcoJoin
)

func (a JoinAlg) String() string {
	if a == WcoJoin {
		return "wco"
	}
	return "hash"
}

// CommMode is the communication mode of a two-way join.
type CommMode int

const (
	Pushing CommMode = iota
	Pulling
)

func (c CommMode) String() string {
	if c == Pulling {
		return "pulling"
	}
	return "pushing"
}

// Node is one node of the join tree. A leaf is a join unit (a star); an
// internal node is the two-way join (q', q'_l, q'_r) with its physical
// settings.
type Node struct {
	Edges       uint32 // edge mask of the sub-query this node produces
	Left, Right *Node  // nil for leaves
	Alg         JoinAlg
	Comm        CommMode
}

// IsLeaf reports whether the node is a join unit.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Plan is a complete execution plan for a query.
type Plan struct {
	Q    *query.Query
	Root *Node
	Cost float64 // estimated total cost from the optimiser (0 for handmade plans)
	Name string  // provenance: "huge-optimal", "bigjoin", "seed", ...
}

// String renders the join tree with physical settings.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan %s for %s (cost %.3g):\n", p.Name, p.Q.Name(), p.Cost)
	var rec func(n *Node, depth int)
	rec = func(n *Node, depth int) {
		indent := strings.Repeat("  ", depth)
		if n.IsLeaf() {
			root, leaves, _ := p.Q.StarRoot(n.Edges)
			fmt.Fprintf(&sb, "%sunit star(v%d; %s)\n", indent, root+1, leavesStr(leaves))
			return
		}
		fmt.Fprintf(&sb, "%sjoin [%s, %s] vmask=%b\n", indent, n.Alg, n.Comm, p.Q.VerticesOfEdgeMask(n.Edges))
		rec(n.Left, depth+1)
		rec(n.Right, depth+1)
	}
	rec(p.Root, 1)
	return sb.String()
}

func leavesStr(leaves []int) string {
	parts := make([]string, len(leaves))
	for i, l := range leaves {
		parts[i] = fmt.Sprintf("v%d", l+1)
	}
	return strings.Join(parts, ",")
}

// StarOrientation is one way to read an edge mask as a star (v'_r; L).
// A single edge admits two orientations; larger stars have exactly one.
type StarOrientation struct {
	Root   int
	Leaves []int
}

// starOrientations returns the possible (root; leaves) readings of em, or
// nil if em is not a star.
func starOrientations(q *query.Query, em uint32) []StarOrientation {
	root, leaves, ok := q.StarRoot(em)
	if !ok {
		return nil
	}
	out := []StarOrientation{{Root: root, Leaves: leaves}}
	if len(leaves) == 1 {
		out = append(out, StarOrientation{Root: leaves[0], Leaves: []int{root}})
	}
	return out
}

// configureDirected applies Equation 3 of the paper to the join
// (q', q'_l, q'_r) with q'_r fixed as the candidate star side:
//
//	(wco,  pulling) if it is a complete star join,
//	(hash, pulling) if q'_r is a star (v'_r; L) with v'_r ∈ V_{q'_l},
//	(hash, pushing) otherwise.
//
// Both orientations of a 1-star are tried. The two orientations of a split
// are not equally expensive — a pulling join never materialises its right
// star — so the optimiser prices each (see Optimize).
func configureDirected(q *query.Query, left, right uint32) (JoinAlg, CommMode) {
	return equation3(q.VerticesOfEdgeMask(left), starOrientations(q, right))
}

// equation3 is configureDirected on a left side's vertex mask and a right
// side's star readings (nil when it is not a star).
func equation3(lv uint32, right []StarOrientation) (JoinAlg, CommMode) {
	rootIn := false
	for _, o := range right {
		complete := true
		for _, leaf := range o.Leaves {
			if lv&(1<<leaf) == 0 {
				complete = false
				break
			}
		}
		if complete {
			return WcoJoin, Pulling
		}
		if lv&(1<<o.Root) != 0 {
			rootIn = true
		}
	}
	if rootIn {
		return HashJoin, Pulling
	}
	return HashJoin, Pushing
}

// Configure assigns the physical settings of the join (q', q'_l, q'_r) per
// Equation 3 (configureDirected). Join is commutative, so both sides are
// tried — a complete star join on either side wins over a pulling hash join
// — and if only the left child qualifies as the star side, the children are
// swapped so that q'_r is always the star. It returns the (possibly
// swapped) children and the settings.
func Configure(q *query.Query, left, right *Node) (l, r *Node, alg JoinAlg, comm CommMode) {
	algLR, commLR := configureDirected(q, left.Edges, right.Edges)
	algRL, commRL := configureDirected(q, right.Edges, left.Edges)
	switch {
	case algLR == WcoJoin:
		return left, right, WcoJoin, Pulling
	case algRL == WcoJoin:
		return right, left, WcoJoin, Pulling
	case commLR == Pulling:
		return left, right, HashJoin, Pulling
	case commRL == Pulling:
		return right, left, HashJoin, Pulling
	}
	return left, right, HashJoin, Pushing
}
