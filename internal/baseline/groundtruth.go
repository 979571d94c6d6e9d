// Package baseline implements the systems the paper compares HUGE against —
// SEED (bushy hash join, pushing), BiGJoin (wco join, pushing), BENU (DFS
// backtracking over an external key-value store) and RADS (star-expand-and-
// verify, pulling) — plus a single-threaded ground-truth enumerator used as
// the correctness oracle for every engine configuration.
package baseline

import (
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// GroundTruthCount enumerates matches of q in g by sequential backtracking
// (Ullmann-style [82]) honouring q's symmetry-breaking orders, and returns
// the count. It is deliberately simple — the oracle every distributed
// engine must agree with.
func GroundTruthCount(g *graph.Graph, q *query.Query) uint64 {
	var count uint64
	GroundTruthEnumerate(g, q, func([]graph.VertexID) bool {
		count++
		return true
	})
	return count
}

// GroundTruthPinnedCount counts the matches of q in g that use at least
// one edge from the pinned set — the oracle for delta-mode enumeration:
// applied to the inserted set on the new snapshot it yields the new
// matches, applied to the deleted set on the old snapshot the vanished
// ones, and full(t+1) = full(t) + new − vanished.
func GroundTruthPinnedCount(g *graph.Graph, q *query.Query, pinned *graph.EdgeSet) uint64 {
	var count uint64
	GroundTruthEnumerate(g, q, func(m []graph.VertexID) bool {
		for _, e := range q.Edges() {
			if pinned.Has(m[e[0]], m[e[1]]) {
				count++
				break
			}
		}
		return true
	})
	return count
}

// groupKeyOf maps one match to its group key under spec, mirroring the
// engine's key derivation (including the implicit-label-0 convention on
// unlabelled graphs).
func groupKeyOf(g *graph.Graph, spec dataflow.GroupSpec, m []graph.VertexID) uint64 {
	switch spec.Kind {
	case dataflow.GroupByVertex:
		return uint64(m[spec.QV])
	case dataflow.GroupByVertexLabel:
		return uint64(g.Label(m[spec.QV]))
	default: // GroupByEdgeLabel
		return uint64(g.EdgeLabel(m[spec.QA], m[spec.QB]))
	}
}

// GroundTruthGroupedCount enumerates q's matches and tallies them per group
// key — the oracle for engine-side GROUP BY. Keys follow the engine's
// derivation exactly, evaluated on the canonical symmetry-broken
// assignment.
func GroundTruthGroupedCount(g *graph.Graph, q *query.Query, spec dataflow.GroupSpec) map[uint64]uint64 {
	counts := map[uint64]uint64{}
	GroundTruthEnumerate(g, q, func(m []graph.VertexID) bool {
		counts[groupKeyOf(g, spec, m)]++
		return true
	})
	return counts
}

// GroundTruthEnumerate calls fn for every match (indexed by query vertex);
// fn returning false stops the enumeration. The match slice is reused
// across calls. Vertex- and edge-label constraints are honoured — the
// oracle cross-checks labelled configurations exactly like unlabelled
// ones — and the first matched vertex seeds from the graph's per-label
// index when constrained.
func GroundTruthEnumerate(g *graph.Graph, q *query.Query, fn func(match []graph.VertexID) bool) {
	order := plan.MatchingOrder(q)
	n := q.NumVertices()
	assign := make([]graph.VertexID, n)
	used := make(map[graph.VertexID]bool, n)
	pos := make([]int, n) // pos[v] = position of query vertex v in order
	for i, v := range order {
		pos[v] = i
	}
	// One intersection scratch per depth: candidate slices alias scratch
	// buffers and must survive the deeper recursive calls.
	scratches := make([]graph.IntersectScratch, n)
	stopped := false

	var rec func(depth int)
	rec = func(depth int) {
		if stopped {
			return
		}
		if depth == n {
			if !fn(assign) {
				stopped = true
			}
			return
		}
		v := order[depth]
		// Candidates: intersection of neighbours of matched query-neighbours.
		var lists [][]graph.VertexID
		for _, u := range q.Adj(v) {
			if pos[u] < depth {
				lists = append(lists, g.Neighbors(assign[u]))
			}
		}
		var cands []graph.VertexID
		if len(lists) == 0 {
			// Only the first vertex in a connected order has no matched
			// neighbour; seed it from the per-label index when constrained.
			if l := q.Label(v); l >= 0 && g.Labeled() {
				cands = g.VerticesWithLabel(graph.LabelID(l))
			} else {
				for c := 0; c < g.NumVertices(); c++ {
					cands = append(cands, graph.VertexID(c))
				}
			}
		} else {
			cands = graph.IntersectMany(lists, &scratches[depth])
		}
		for _, c := range cands {
			if used[c] || !labelOK(g, q, v, c) || !edgeLabelsOKAssign(g, q, v, c, assign, pos, depth) {
				continue
			}
			okOrder := true
			for _, o := range q.Orders() {
				switch {
				case o.A == v && pos[o.B] < depth:
					okOrder = assign[o.B] > c
				case o.B == v && pos[o.A] < depth:
					okOrder = assign[o.A] < c
				default:
					continue
				}
				if !okOrder {
					break
				}
			}
			if !okOrder {
				continue
			}
			assign[v] = c
			used[c] = true
			rec(depth + 1)
			delete(used, c)
			if stopped {
				return
			}
		}
	}
	rec(0)
}
