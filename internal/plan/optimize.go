package plan

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/query"
)

// Config parameterises the optimiser's cost model.
type Config struct {
	NumMachines int     // k in the pulling cost k·|E_G| (Algorithm 1 line 8)
	GraphEdges  float64 // |E_G|
	Card        CardFunc
	// ForceAlg / ForceComm, when non-nil, override Equation 3 — used to
	// derive the restricted plan spaces of the baselines (e.g. SEED is
	// hash+pushing only).
	ForceAlg  *JoinAlg
	ForceComm *CommMode
	// IgnoreComm drops the communication term from the cost, reproducing
	// sequential hybrid planners (EmptyHeaded / GraphFlow, Example 3.2)
	// that consider computation only.
	IgnoreComm bool
}

// physical applies the config's overrides to a join's Equation 3 settings.
func (c *Config) physical(alg JoinAlg, comm CommMode) (JoinAlg, CommMode) {
	if c.ForceAlg != nil {
		alg = *c.ForceAlg
	}
	if c.ForceComm != nil {
		comm = *c.ForceComm
	}
	return alg, comm
}

// withDefaults validates the config and fills NumMachines.
func (c Config) withDefaults() Config {
	if c.NumMachines < 1 {
		c.NumMachines = 1
	}
	if c.Card == nil {
		panic("plan: Config.Card is required")
	}
	return c
}

// subPlan is what joinCost needs to know of one join input: the cost of
// producing it and its cardinality |R(q'_x)|.
type subPlan struct{ cost, card float64 }

// joinCost prices the two-way join of l and r with output cardinality
// cardOut — the one formula behind both Optimize and CostOf:
//
//	pulling: cost(q'_l) + |R(q')| + k·|E_G|
//	pushing: cost(q'_l) + cost(q'_r) + |R(q')| + |R(q'_l)| + |R(q'_r)|
//
// A pulling join (wco or hash) is translated into PULL-EXTEND / verify
// operators over the left pipeline (translate.go: pullingWco, pullingHash):
// its right star is intersected out of pulled adjacency lists and never
// produced, so neither its cardinality nor a shuffle of it is charged. A
// pushing join runs both children to completion and shuffles both.
// IgnoreComm drops the k·|E_G| and shuffle terms.
func (c *Config) joinCost(comm CommMode, l, r subPlan, cardOut float64) float64 {
	cost := l.cost + cardOut
	if comm == Pulling {
		if !c.IgnoreComm {
			cost += float64(c.NumMachines) * c.GraphEdges
		}
		return cost
	}
	cost += r.cost
	if !c.IgnoreComm {
		cost += l.card + r.card
	}
	return cost
}

// CostOf prices any plan tree with the optimiser's cost function (joinCost),
// reading each join's communication mode off the tree and taking its right
// child as the star side, as Configure and Translate do. It is how a
// hand-built plan gets a Cost comparable with Optimize's; the Force*
// overrides in cfg do not apply to a tree that is already configured.
func CostOf(p *Plan, cfg Config) float64 {
	cfg = cfg.withDefaults()
	return cfg.costOf(p)
}

// costOf is CostOf on a defaulted config. A tail of two or more is priced
// at its prefix (tailCost).
func (c *Config) costOf(p *Plan) float64 {
	var rec func(n *Node) subPlan
	rec = func(n *Node) subPlan {
		card := c.Card(p.Q, n.Edges)
		if n.IsLeaf() {
			return subPlan{cost: card, card: card}
		}
		var r subPlan // a pulled right star is never run: nothing of it is priced
		if n.Comm == Pushing {
			r = rec(n.Right)
		}
		return subPlan{cost: c.joinCost(n.Comm, rec(n.Left), r, card), card: card}
	}
	if cost, ok := c.tailCost(p, rec); ok {
		return cost
	}
	return rec(p.Root).cost
}

// Optimize implements Algorithm 1: a dynamic program over connected
// sub-queries (represented as edge masks) that minimises the cost of what
// the translated plan executes. A join unit (star) costs |R(star)|: it is
// scanned. A join costs joinCost: a pulling join pays for its left input,
// its output |R(q')| and k·|E_G| of pulled adjacency, but not for its right
// star, which PULL-EXTEND never materialises; a pushing join pays for both
// inputs, the output and the shuffle |R(q'_l)| + |R(q'_r)|. Because the two
// sides of a pulling join are charged differently, every split is priced in
// both orientations ("edge ⋈ wedge" scans an edge, "wedge ⋈ edge" scans a
// wedge) and the chosen orientation is kept when the tree is built. Ties go
// to the split enumerated first, left side holding the lowest edge.
//
// A tail of two or more (tail.go) is priced at its prefix, which the DP
// over sub-queries cannot see: the tree the DP finds is re-priced by
// CostOf's rule and competes with every tree whose tail qualifies, each
// built on the DP's optimum for its prefix. The first strictly cheapest
// wins.
func Optimize(q *query.Query, cfg Config) *Plan {
	cfg = cfg.withDefaults()
	full := q.FullEdgeMask()

	// Enumerate connected edge masks, ordered by size.
	var masks []uint32
	for em := uint32(1); em <= full; em++ {
		if q.EdgeMaskConnected(em) {
			masks = append(masks, em)
		}
	}
	slices.SortFunc(masks, func(a, b uint32) int {
		if ca, cb := bits.OnesCount32(a), bits.OnesCount32(b); ca != cb {
			return ca - cb
		}
		return int(a) - int(b)
	})

	type entry struct {
		subPlan
		vmask uint32
		star  []StarOrientation // nil unless the mask is a join unit
		l, r  uint32            // 0,0 for join units
	}
	table := make(map[uint32]entry, len(masks))
	configure := func(l, r entry) (JoinAlg, CommMode) {
		return cfg.physical(equation3(l.vmask, r.star))
	}

	for _, em := range masks {
		e := entry{vmask: q.VerticesOfEdgeMask(em), star: starOrientations(q, em)}
		e.card = cfg.Card(q, em)
		if e.star != nil {
			e.cost = e.card
			table[em] = e
			continue
		}
		e.cost = math.Inf(1)
		low := em & -em
		for l := em & (em - 1); l != 0; l = (l - 1) & em {
			if l&low == 0 {
				continue // each split once: the side holding the lowest edge first
			}
			r := em &^ l
			el, okL := table[l]
			er, okR := table[r]
			if !okL || !okR {
				continue // a side is disconnected
			}
			// Join is commutative and Equation 3 makes it pull when either
			// side can be the star; when both can, the cheaper one is.
			_, commLR := configure(el, er)
			_, commRL := configure(er, el)
			if commLR == Pulling || commRL != Pulling {
				if c := cfg.joinCost(commLR, el.subPlan, er.subPlan, e.card); c < e.cost {
					e.cost, e.l, e.r = c, l, r
				}
			}
			if commRL == Pulling {
				if c := cfg.joinCost(Pulling, er.subPlan, el.subPlan, e.card); c < e.cost {
					e.cost, e.l, e.r = c, r, l
				}
			}
		}
		if math.IsInf(e.cost, 1) {
			panic("plan: no decomposition found for connected sub-query (unreachable)")
		}
		table[em] = e
	}

	var build func(em uint32) *Node
	build = func(em uint32) *Node {
		e := table[em]
		if e.l == 0 {
			return &Node{Edges: em}
		}
		alg, comm := configure(table[e.l], table[e.r])
		return &Node{Edges: em, Left: build(e.l), Right: build(e.r), Alg: alg, Comm: comm}
	}
	p := &Plan{Q: q, Root: build(full), Cost: table[full].cost, Name: "huge-optimal"}
	if !cfg.tailPriced() {
		return p
	}
	inTable := func(em uint32) bool { _, ok := table[em]; return ok }
	cands := tailCandidates(q, inTable, build)
	if len(cands) == 0 {
		return p // the DP's tree has no tail either: its prefix would be a candidate's
	}
	p.Cost = cfg.costOf(p)
	for _, root := range cands {
		cand := &Plan{Q: q, Root: root, Name: p.Name}
		if cand.Cost = cfg.costOf(cand); cand.Cost < p.Cost {
			p = cand
		}
	}
	return p
}
