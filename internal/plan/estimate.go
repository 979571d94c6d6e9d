package plan

import (
	"math"
	"math/bits"
	"slices"

	"repro/internal/graph"
	"repro/internal/query"
)

// CardFunc estimates |R(q')| — the number of matches of the sub-query given
// by edge mask em — used by Algorithm 1 (line 4/6) to cost plans. The paper
// cites estimation methods [46, 51, 58]; we provide a degree-moment
// estimator (exact in the Chung–Lu random-graph model) and a plain
// Erdős–Rényi fallback.
type CardFunc func(q *query.Query, em uint32) float64

// GraphStats summarises a data graph for cardinality estimation.
type GraphStats struct {
	N       int
	M       uint64    // undirected edges
	Moments []float64 // Moments[k] = Σ_v d(v)^k, for k = 0..MaxVertices-1
	MaxDeg  int
	// Epoch is the snapshot version the statistics were computed for
	// (graph.Graph.Epoch()). It participates in Fingerprint, so two
	// statistically identical snapshots of different epochs never share
	// plan-cache entries — a plan optimised before an update can never be
	// served after it.
	Epoch uint64
	// LabelCounts[l] is the number of vertices carrying label l; nil for
	// unlabelled graphs. The optimiser multiplies a sub-query's estimate by
	// each constrained vertex's label selectivity, which is what makes
	// rare-label-first plans fall out of the dynamic program.
	LabelCounts []float64
	// EdgeTriples counts undirected edges per (srcLabel, edgeLabel,
	// dstLabel) triple, keyed by EdgeTripleKey (endpoint labels
	// canonicalised min-first); nil for edge-unlabelled graphs. The
	// estimators multiply each edge-label-constrained query edge's
	// selectivity in, which makes rare-edge-first plans fall out of the
	// dynamic program exactly as rare vertex labels do.
	EdgeTriples map[uint64]float64
}

// EdgeTripleKey packs a (srcLabel, edgeLabel, dstLabel) triple into the
// canonical EdgeTriples key (endpoint labels ordered min-first, since
// edges are undirected).
func EdgeTripleKey(src graph.LabelID, el graph.LabelID, dst graph.LabelID) uint64 {
	if src > dst {
		src, dst = dst, src
	}
	return uint64(src)<<32 | uint64(el)<<16 | uint64(dst)
}

// LabelShare returns the fraction of vertices carrying label l, treating an
// unlabelled graph as uniformly label-0. A label no vertex carries reports
// a half-vertex share rather than zero so costs stay finite and ordered.
func (s GraphStats) LabelShare(l int) float64 {
	if s.N == 0 {
		return 1
	}
	if s.LabelCounts == nil {
		if l == 0 {
			return 1
		}
		return 0.5 / float64(s.N)
	}
	cnt := 0.0
	if l >= 0 && l < len(s.LabelCounts) {
		cnt = s.LabelCounts[l]
	}
	return math.Max(cnt, 0.5) / float64(s.N)
}

// labelSelectivity is the product of label shares over the constrained
// vertices covered by edge mask em — the factor by which label constraints
// shrink a sub-query's match estimate under label/structure independence.
func labelSelectivity(s GraphStats, q *query.Query, em uint32) float64 {
	if !q.Labeled() {
		return 1
	}
	sel := 1.0
	vm := q.VerticesOfEdgeMask(em)
	for vm != 0 {
		v := bits.TrailingZeros32(vm)
		vm &= vm - 1
		if l := q.Label(v); l >= 0 {
			sel *= s.LabelShare(l)
		}
	}
	return sel
}

// edgeSelectivity precomputes marginal edge-label counts and per-endpoint-
// label-pair counts from EdgeTriples, so the per-(q, em) factor inside the
// optimiser's cardinality calls costs O(query edges), not a map scan.
type edgeSelectivity struct {
	stats    GraphStats
	marginal map[int]float64    // edge label → edge count
	pairs    map[uint64]float64 // (minVL, maxVL) → edge count, any edge label
}

func newEdgeSelectivity(stats GraphStats) *edgeSelectivity {
	es := &edgeSelectivity{stats: stats}
	if stats.EdgeTriples == nil {
		return es
	}
	es.marginal = map[int]float64{}
	es.pairs = map[uint64]float64{}
	for k, c := range stats.EdgeTriples {
		es.marginal[int(k>>16&0xFFFF)] += c
		es.pairs[k>>32<<16|k&0xFFFF] += c
	}
	return es
}

// factor is the multiplicative edge-label selectivity of the query edges
// covered by em. A constrained edge whose endpoints are both
// vertex-labelled multiplies the conditional share
// triple(la, el, lb) / pairCount(la, lb) — the endpoint-label factor is
// already priced in by labelSelectivity — while partially-constrained
// edges fall back to the marginal share of the edge label. 1 for
// edge-unlabelled queries: estimators stay bit-identical without
// edge-label constraints.
func (es *edgeSelectivity) factor(q *query.Query, em uint32) float64 {
	if !q.EdgeLabeled() || es.stats.M == 0 {
		return 1
	}
	sel := 1.0
	halfEdge := 0.5 / float64(es.stats.M)
	m := em
	for m != 0 {
		i := bits.TrailingZeros32(m)
		m &= m - 1
		el := q.EdgeLabelAt(i)
		if el < 0 {
			continue
		}
		if es.stats.EdgeTriples == nil {
			// Edge-unlabelled graph: every edge implicitly carries label 0.
			if el != 0 {
				sel *= halfEdge
			}
			continue
		}
		e := q.Edges()[i]
		la, lb := q.Label(e[0]), q.Label(e[1])
		if la >= 0 && lb >= 0 {
			mn, mx := la, lb
			if mn > mx {
				mn, mx = mx, mn
			}
			if pair := es.pairs[uint64(mn)<<16|uint64(mx)]; pair > 0 {
				cnt := es.stats.EdgeTriples[EdgeTripleKey(graph.LabelID(la), graph.LabelID(el), graph.LabelID(lb))]
				sel *= math.Max(cnt, 0.5) / pair
				continue
			}
			sel *= halfEdge
			continue
		}
		sel *= math.Max(es.marginal[el], 0.5) / float64(es.stats.M)
	}
	return sel
}

// Fingerprint returns a version hash of the statistics: plan-cache keys
// include it so that plans optimised against stale statistics (a different
// graph, or a re-computed summary after updates) are never reused.
func (s GraphStats) Fingerprint() uint64 {
	h := uint64(1469598103934665603) // FNV-64 offset basis
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	mix(uint64(s.N))
	mix(s.M)
	mix(uint64(s.MaxDeg))
	mix(s.Epoch)
	for _, m := range s.Moments {
		mix(math.Float64bits(m))
	}
	// Label frequencies participate only when present, so an unlabelled
	// graph's fingerprint is unchanged from the label-free format and a
	// labelled twin never shares plan-cache entries with its base graph.
	for _, c := range s.LabelCounts {
		mix(math.Float64bits(c))
	}
	// Edge-label triples likewise — mixed in sorted key order so the map's
	// iteration order can never leak into the fingerprint.
	if s.EdgeTriples != nil {
		keys := make([]uint64, 0, len(s.EdgeTriples))
		for k := range s.EdgeTriples {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for _, k := range keys {
			mix(k)
			mix(math.Float64bits(s.EdgeTriples[k]))
		}
	}
	return h
}

// ComputeStats scans the graph once and collects degree moments.
func ComputeStats(g *graph.Graph) GraphStats {
	s := GraphStats{
		N:       g.NumVertices(),
		M:       g.NumEdges(),
		Moments: make([]float64, query.MaxVertices),
		MaxDeg:  g.MaxDegree(),
		Epoch:   g.Epoch(),
	}
	for v := 0; v < g.NumVertices(); v++ {
		d := float64(g.Degree(graph.VertexID(v)))
		p := 1.0
		for k := 0; k < len(s.Moments); k++ {
			s.Moments[k] += p
			p *= d
		}
	}
	if g.Labeled() {
		s.LabelCounts = make([]float64, g.NumLabels())
		for l := range s.LabelCounts {
			s.LabelCounts[l] = float64(g.LabelCount(graph.LabelID(l)))
		}
	}
	s.EdgeTriples = computeEdgeTriples(g)
	return s
}

// computeEdgeTriples counts each undirected edge once under its
// (srcLabel, edgeLabel, dstLabel) triple; nil for edge-unlabelled graphs.
func computeEdgeTriples(g *graph.Graph) map[uint64]float64 {
	if !g.EdgeLabeled() {
		return nil
	}
	triples := map[uint64]float64{}
	for v := 0; v < g.NumVertices(); v++ {
		nb := g.Neighbors(graph.VertexID(v))
		lb := g.NeighborEdgeLabels(graph.VertexID(v))
		for i, w := range nb {
			if graph.VertexID(v) < w {
				triples[EdgeTripleKey(g.Label(graph.VertexID(v)), lb[i], g.Label(w))]++
			}
		}
	}
	return triples
}

// UpdateStats derives the statistics of the snapshot newG from the previous
// snapshot's statistics without rescanning the graph: only the vertices
// whose adjacency changed (applied.Touched) have their degree-moment
// contributions swapped; N, M, MaxDeg and Epoch are O(1) reads off newG;
// label frequencies are re-read from the per-label index (numLabels
// entries, not a vertex scan); edge-label triples are patched from the
// effective inserted/deleted edge sets and the relabelled vertices — work
// proportional to the delta. With exact integer-valued moments and counts
// it matches ComputeStats(newG) bit for bit.
func UpdateStats(s GraphStats, oldG, newG *graph.Graph, applied graph.Applied) GraphStats {
	ns := GraphStats{
		N:       newG.NumVertices(),
		M:       newG.NumEdges(),
		Moments: append([]float64(nil), s.Moments...),
		MaxDeg:  newG.MaxDegree(),
		Epoch:   newG.Epoch(),
	}
	// Moments[0] = N always (every vertex contributes d^0 = 1): covers gap
	// vertices created by a growing delta without touching the loop below.
	ns.Moments[0] = float64(ns.N)
	oldN := oldG.NumVertices()
	for _, v := range applied.Touched {
		var oldD float64
		if int(v) < oldN {
			oldD = float64(oldG.Degree(v))
		}
		newD := float64(newG.Degree(v))
		po, pn := oldD, newD
		for k := 1; k < len(ns.Moments); k++ {
			if int(v) < oldN {
				ns.Moments[k] -= po
			}
			ns.Moments[k] += pn
			po *= oldD
			pn *= newD
		}
	}
	if newG.Labeled() {
		ns.LabelCounts = make([]float64, newG.NumLabels())
		for l := range ns.LabelCounts {
			ns.LabelCounts[l] = float64(newG.LabelCount(graph.LabelID(l)))
		}
	}
	ns.EdgeTriples = updateEdgeTriples(s, oldG, newG, applied)
	return ns
}

// updateEdgeTriples patches the previous snapshot's triple counts: deleted
// edges are subtracted under the old snapshot's labels, inserted edges
// added under the new snapshot's (an edge relabel, being
// delete-and-reinsert churn, moves between triples automatically), and
// edges incident to relabelled vertices move from their old endpoint-label
// triple to the new one. Counts are integers, so zero entries vanish
// exactly and the result is bit-identical to computeEdgeTriples(newG).
func updateEdgeTriples(s GraphStats, oldG, newG *graph.Graph, applied graph.Applied) map[uint64]float64 {
	if !newG.EdgeLabeled() {
		return nil
	}
	if !oldG.EdgeLabeled() {
		// The delta introduced edge labels: there is no triple base to
		// patch. This transition compacts the whole CSR anyway, so a full
		// recount costs nothing extra asymptotically.
		return computeEdgeTriples(newG)
	}
	nt := make(map[uint64]float64, len(s.EdgeTriples))
	for k, c := range s.EdgeTriples {
		nt[k] = c
	}
	bump := func(k uint64, d float64) {
		if c := nt[k] + d; c > 0 {
			nt[k] = c
		} else {
			delete(nt, k)
		}
	}
	for _, e := range applied.Deleted.Edges() {
		bump(EdgeTripleKey(oldG.Label(e[0]), oldG.EdgeLabel(e[0], e[1]), oldG.Label(e[1])), -1)
	}
	for _, e := range applied.Inserted.Edges() {
		bump(EdgeTripleKey(newG.Label(e[0]), newG.EdgeLabel(e[0], e[1]), newG.Label(e[1])), +1)
	}
	// Surviving edges incident to a relabelled vertex change endpoint
	// labels without changing the edge label. Deleted edges were already
	// subtracted (under old labels) and inserted ones added (under new),
	// so only edges in neither set move; the seen set keeps an edge
	// between two relabelled vertices from moving twice.
	seen := map[[2]graph.VertexID]struct{}{}
	for _, v := range applied.Relabeled {
		if int(v) >= oldG.NumVertices() {
			continue
		}
		for _, w := range oldG.Neighbors(v) {
			a, b := v, w
			if a > b {
				a, b = b, a
			}
			if _, dup := seen[[2]graph.VertexID{a, b}]; dup {
				continue
			}
			seen[[2]graph.VertexID{a, b}] = struct{}{}
			if applied.Deleted.Has(v, w) {
				continue
			}
			el := oldG.EdgeLabel(v, w)
			bump(EdgeTripleKey(oldG.Label(a), el, oldG.Label(b)), -1)
			bump(EdgeTripleKey(newG.Label(a), el, newG.Label(b)), +1)
		}
	}
	return nt
}

// MomentEstimator returns a CardFunc based on degree moments: in the
// Chung–Lu model with the graph's empirical degrees as weights, the expected
// number of homomorphisms of a pattern H is
//
//	Π_{v ∈ V_H} m_{deg_H(v)} / m_1^{|E_H|},   m_k = Σ_i d_i^k.
//
// This captures degree skew — the dominant effect in the paper's datasets —
// and reduces to the Erdős–Rényi estimate on regular graphs. Each
// label-constrained vertex covered by em further multiplies the estimate by
// its label's frequency share (independence of labels and structure), so
// sub-queries anchored on rare labels cost orders of magnitude less and the
// optimiser starts plans from them; each edge-label-constrained query edge
// multiplies its triple-conditional share in the same way, yielding
// rare-edge-first plans.
func MomentEstimator(stats GraphStats) CardFunc {
	es := newEdgeSelectivity(stats)
	return func(q *query.Query, em uint32) float64 {
		if em == 0 {
			return 1
		}
		deg := make([]int, q.NumVertices())
		edges := 0
		m := em
		for m != 0 {
			i := bits.TrailingZeros32(m)
			m &= m - 1
			e := q.Edges()[i]
			deg[e[0]]++
			deg[e[1]]++
			edges++
		}
		logEst := 0.0
		for _, d := range deg {
			if d > 0 {
				logEst += math.Log(math.Max(stats.Moments[d], 1))
			}
		}
		logEst -= float64(edges) * math.Log(math.Max(stats.Moments[1], 2))
		est := math.Exp(logEst) * labelSelectivity(stats, q, em) * es.factor(q, em)
		if est < 1 {
			return 1
		}
		return est
	}
}

// ERRandomGraphEstimator returns a CardFunc using the Erdős–Rényi model:
// falling(n, v) * p^e with p = 2M / (N(N-1)). Used as a baseline estimator
// and by tests.
func ERRandomGraphEstimator(stats GraphStats) CardFunc {
	es := newEdgeSelectivity(stats)
	return func(q *query.Query, em uint32) float64 {
		if em == 0 {
			return 1
		}
		vm := q.VerticesOfEdgeMask(em)
		v := bits.OnesCount32(vm)
		e := bits.OnesCount32(em)
		n := float64(stats.N)
		if n < 2 {
			return 1
		}
		p := 2 * float64(stats.M) / (n * (n - 1))
		logEst := 0.0
		for i := 0; i < v; i++ {
			logEst += math.Log(n - float64(i))
		}
		logEst += float64(e) * math.Log(math.Max(p, 1e-300))
		est := math.Exp(logEst) * labelSelectivity(stats, q, em) * es.factor(q, em)
		if est < 1 {
			return 1
		}
		return est
	}
}
