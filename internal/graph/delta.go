package graph

// Versioned snapshots: a Delta describes an edge/label change set, and
// Apply merges it into a *new* epoch-stamped Graph, leaving the current
// snapshot untouched — in-flight queries keep reading the version they
// started on. Small deltas become an adjacency overlay (rebuilt lists for
// the touched vertices only, base CSR shared for everything else); once the
// overlay grows past a fraction of the graph, Apply compacts back into a
// flat CSR. The effective insert/delete sets are returned so the serving
// layer can drive delta-only enumeration and incremental statistics.

import (
	"fmt"
	"slices"
)

// DefaultOverlayFraction is the compaction threshold used by Apply: when
// the overlay would hold more than this fraction of the graph's adjacency
// entries, the new snapshot is rebuilt as a flat CSR instead.
const DefaultOverlayFraction = 0.25

// VertexLabel assigns label L to vertex V in a Delta.
type VertexLabel struct {
	V VertexID
	L LabelID
}

// EdgeLabel assigns edge label L to the existing undirected edge (U, V) in
// a Delta — the edge-relabel operation. Relabelling an absent edge, or to
// the label the edge already carries, is a no-op.
type EdgeLabel struct {
	U, V VertexID
	L    LabelID
}

// Delta is a batch of updates to apply to a snapshot: edge insertions
// (optionally labelled), edge deletions, edge relabels, and optional
// vertex label changes. Edges are undirected and unordered; self-loops,
// duplicates, deletions of absent edges and insertions of present ones are
// ignored (see Apply for the exact semantics when one edge appears in both
// Insert and Delete). An insertion of an edge that is present and not
// deleted is a no-op even when its label differs — use Relabel to change
// an existing edge's label.
type Delta struct {
	Insert [][2]VertexID
	// InsertLabels, when non-nil, must be parallel to Insert: entry i is
	// the edge label of Insert[i]. Nil inserts every edge with label 0.
	InsertLabels []LabelID
	Delete       [][2]VertexID
	// Relabel changes the edge labels of existing edges. Apply treats an
	// effective relabel as a delete-and-reinsert of the edge, so it appears
	// in both Applied sets and the differential counting identity holds for
	// edge-label-constrained queries.
	Relabel []EdgeLabel
	Labels  []VertexLabel
}

// EdgeSet is a set of canonical undirected edges (u < v) with O(1)
// membership and a deterministic (sorted) edge list — the engine pins delta
// scans on it and excludes its edges from older positions of a rewritten
// enumeration. A nil *EdgeSet behaves as the empty set. A set is sorted
// where it is built and never written after, so any number of goroutines
// may read a published one.
type EdgeSet struct {
	set  map[[2]VertexID]struct{}
	list [][2]VertexID
}

// NewEdgeSet builds an EdgeSet from an edge list, canonicalising endpoint
// order and dropping self-loops and duplicates.
func NewEdgeSet(edges [][2]VertexID) *EdgeSet {
	s := &EdgeSet{}
	for _, e := range edges {
		s.add(e[0], e[1])
	}
	s.sort()
	return s
}

// sort orders the edge list, which ends building the set.
func (s *EdgeSet) sort() {
	slices.SortFunc(s.list, func(a, b [2]VertexID) int {
		if a[0] != b[0] {
			return int(a[0]) - int(b[0])
		}
		return int(a[1]) - int(b[1])
	})
}

func (s *EdgeSet) add(u, v VertexID) bool {
	if u == v {
		return false
	}
	if u > v {
		u, v = v, u
	}
	if s.set == nil {
		s.set = map[[2]VertexID]struct{}{}
	}
	if _, ok := s.set[[2]VertexID{u, v}]; ok {
		return false
	}
	s.set[[2]VertexID{u, v}] = struct{}{}
	s.list = append(s.list, [2]VertexID{u, v})
	return true
}

// Len returns the number of edges in the set (0 for nil).
func (s *EdgeSet) Len() int {
	if s == nil {
		return 0
	}
	return len(s.list)
}

// Has reports whether the undirected edge (u, v) is in the set. Safe on a
// nil receiver.
func (s *EdgeSet) Has(u, v VertexID) bool {
	if s == nil || s.set == nil {
		return false
	}
	if u > v {
		u, v = v, u
	}
	_, ok := s.set[[2]VertexID{u, v}]
	return ok
}

// Edges returns the canonical (u < v) edge list in ascending order. The
// returned slice is owned by the set; do not modify.
func (s *EdgeSet) Edges() [][2]VertexID {
	if s == nil {
		return nil
	}
	return s.list
}

// Applied reports the effective change Apply made — after dropping no-op
// operations — so callers can maintain statistics and run delta-only
// enumeration against exactly what changed.
type Applied struct {
	// Inserted holds the edges present in the new snapshot but not the old
	// one; Deleted the edges present in the old snapshot but not the new.
	// An edge listed in both Insert and Delete of the Delta is treated as
	// deleted-then-reinserted and appears in both sets, which keeps the
	// differential counting identity exact.
	Inserted, Deleted *EdgeSet
	// Touched lists the vertices whose adjacency changed, ascending.
	Touched []VertexID
	// Relabeled lists the vertices whose label actually changed.
	Relabeled []VertexID
	// Compacted reports whether the new snapshot was rebuilt as a flat CSR
	// (true) or left as an overlay over the previous base (false).
	Compacted bool
}

// Apply merges d into a new snapshot with epoch g.Epoch()+1 and returns it
// together with the effective change. g is never mutated; the two
// snapshots share storage wherever possible. Small deltas produce an
// overlay; once the overlay would exceed DefaultOverlayFraction of the
// adjacency entries the snapshot is compacted (see ApplyThreshold).
//
// Semantics: the new edge set is (E ∖ Delete) ∪ Insert over canonical
// undirected edges; vertex count grows to cover every referenced vertex;
// label changes apply after edges and rebuild the per-label index.
func Apply(g *Graph, d Delta) (*Graph, Applied) {
	return ApplyThreshold(g, d, DefaultOverlayFraction)
}

// ApplyThreshold is Apply with an explicit compaction threshold:
// maxOverlayFrac <= 0 forces a CSR rebuild, >= 1 effectively always keeps
// an overlay.
func ApplyThreshold(g *Graph, d Delta, maxOverlayFrac float64) (*Graph, Applied) {
	if d.InsertLabels != nil && len(d.InsertLabels) != len(d.Insert) {
		panic(fmt.Sprintf("graph: Delta.InsertLabels has %d entries for %d insertions",
			len(d.InsertLabels), len(d.Insert)))
	}
	inBounds := func(u, v VertexID) bool { return int(u) < g.numV && int(v) < g.numV }

	// Effective deletions: edges that exist in g.
	del := &EdgeSet{}
	for _, e := range d.Delete {
		u, v := e[0], e[1]
		if u == v || del.Has(u, v) {
			continue
		}
		if inBounds(u, v) && g.HasEdge(u, v) {
			del.add(u, v)
		}
	}
	// insLab carries the edge labels of effective insertions (canonical
	// u < v keys; absent = label 0). Any nonzero label makes the new
	// snapshot edge-labelled.
	ins := &EdgeSet{}
	insLab := map[[2]VertexID]LabelID{}
	edgeLabelled := g.elabels != nil
	setInsLab := func(u, v VertexID, l LabelID) {
		if l == 0 {
			return
		}
		if u > v {
			u, v = v, u
		}
		insLab[[2]VertexID{u, v}] = l
		edgeLabelled = true
	}
	// Effective relabels: existing, surviving edges whose label actually
	// changes become delete-and-reinsert churn carrying the new label.
	for _, r := range d.Relabel {
		u, v := r.U, r.V
		if u == v || !inBounds(u, v) || !g.HasEdge(u, v) || del.Has(u, v) || ins.Has(u, v) {
			continue
		}
		if g.EdgeLabel(u, v) == r.L {
			continue
		}
		del.add(u, v)
		ins.add(u, v)
		setInsLab(u, v, r.L)
	}
	// Effective insertions: edges absent after the deletions. An edge both
	// deleted and inserted counts as churn (member of both sets).
	for i, e := range d.Insert {
		u, v := e[0], e[1]
		if u == v || ins.Has(u, v) {
			continue
		}
		if inBounds(u, v) && g.HasEdge(u, v) && !del.Has(u, v) {
			continue // already present and staying: no-op
		}
		ins.add(u, v)
		if d.InsertLabels != nil {
			setInsLab(u, v, d.InsertLabels[i])
		}
	}
	ins.sort()
	del.sort()

	// Per-vertex change lists and the touched set.
	insPer := map[VertexID][]VertexID{}
	delPer := map[VertexID][]VertexID{}
	var insLabPer map[VertexID][]LabelID
	if edgeLabelled {
		insLabPer = map[VertexID][]LabelID{}
	}
	touchedSet := map[VertexID]struct{}{}
	for _, e := range ins.Edges() {
		insPer[e[0]] = append(insPer[e[0]], e[1])
		insPer[e[1]] = append(insPer[e[1]], e[0])
		if edgeLabelled {
			l := insLab[e] // canonical key: Edges() yields u < v
			insLabPer[e[0]] = append(insLabPer[e[0]], l)
			insLabPer[e[1]] = append(insLabPer[e[1]], l)
		}
		touchedSet[e[0]], touchedSet[e[1]] = struct{}{}, struct{}{}
	}
	for _, e := range del.Edges() {
		delPer[e[0]] = append(delPer[e[0]], e[1])
		delPer[e[1]] = append(delPer[e[1]], e[0])
		touchedSet[e[0]], touchedSet[e[1]] = struct{}{}, struct{}{}
	}
	touched := make([]VertexID, 0, len(touchedSet))
	for v := range touchedSet {
		touched = append(touched, v)
	}
	slices.Sort(touched)

	// New vertex count: cover every referenced vertex.
	nv := g.numV
	for _, e := range ins.Edges() {
		if int(e[1])+1 > nv { // canonical order: e[1] is the larger endpoint
			nv = int(e[1]) + 1
		}
	}
	for _, vl := range d.Labels {
		if int(vl.V)+1 > nv {
			nv = int(vl.V) + 1
		}
	}
	numE := g.numE + uint64(ins.Len()) - uint64(del.Len())

	// Rebuild the adjacency (and, when edge-labelled, the parallel label
	// lists) of every touched vertex.
	newAdj := make(map[VertexID][]VertexID, len(touched))
	var newLab map[VertexID][]LabelID
	if edgeLabelled {
		newLab = make(map[VertexID][]LabelID, len(touched))
	}
	for _, v := range touched {
		var old []VertexID
		var oldLb []LabelID
		if int(v) < g.numV {
			old, oldLb = g.neighborsAndLabels(v)
		}
		nb, lb := mergeAdj(old, oldLb, insPer[v], insLabPer[v], delPer[v], edgeLabelled)
		newAdj[v] = nb
		if edgeLabelled {
			newLab[v] = lb
		}
	}

	applied := Applied{Inserted: ins, Deleted: del, Touched: touched}

	// Choose representation: carry the parent overlay forward (touched
	// vertices overwrite their carried entries) unless the result exceeds
	// the compaction threshold. A delta that introduces edge labels to a
	// previously edge-unlabelled graph always compacts, materialising the
	// base label array the overlay representation shares.
	overlay := make(map[VertexID][]VertexID, len(g.over)+len(newAdj))
	for v, nb := range g.over {
		overlay[v] = nb
	}
	// The overlay's row count carries forward: only the touched vertices'
	// lists changed, so theirs replace what they held before.
	overRows := g.overRows
	for v, nb := range newAdj {
		overlay[v] = nb
		overRows += uint64(len(nb)) - uint64(len(g.over[v]))
	}
	becomesLabelled := edgeLabelled && g.elabels == nil

	// The new snapshot never inherits the built hub index: adjacency
	// changed, so hub bitsets rebuild lazily.
	ng := &Graph{numV: nv, numE: numE, epoch: g.epoch + 1}
	switch {
	case len(overlay) == 0 && nv == g.numV:
		// Nothing changed structurally: share the base CSR verbatim. (A
		// label-only delta can still grow the vertex set, in which case the
		// base offsets no longer cover every vertex — fall through to a
		// compaction that extends them.)
		ng.offsets, ng.adj, ng.maxDeg = g.offsets, g.adj, g.maxDeg
		ng.elabels, ng.numELabels = g.elabels, g.numELabels
	case len(overlay) == 0 && nv > g.numV, becomesLabelled,
		maxOverlayFrac <= 0 || float64(overRows) > maxOverlayFrac*float64(2*numE):
		ng.compactFrom(g, newAdj, newLab, nv, edgeLabelled)
		applied.Compacted = true
	default:
		ng.offsets, ng.adj = g.offsets, g.adj
		ng.over, ng.overRows = overlay, overRows
		ng.maxDeg = overlayMaxDeg(g, newAdj, touched, nv)
		if edgeLabelled {
			ng.elabels = g.elabels // non-nil: becomesLabelled compacts above
			overEl := make(map[VertexID][]LabelID, len(overlay))
			for v, lb := range g.overEl {
				overEl[v] = lb
			}
			for v, lb := range newLab {
				overEl[v] = lb
			}
			ng.overEl = overEl
			ng.numELabels = g.numELabels
			for _, l := range insLab {
				if int(l)+1 > ng.numELabels {
					ng.numELabels = int(l) + 1
				}
			}
		}
	}

	applied.Relabeled = ng.applyLabels(g, d.Labels, nv)
	return ng, applied
}

// mergeAdj rebuilds one sorted adjacency list — old minus del plus add —
// together with its parallel edge-label list when labelled is set (oldLb
// and addLb may be nil, meaning all-zero labels). Effective sets guarantee
// add ∩ (old ∖ del) = ∅, so no dedupe is needed.
func mergeAdj(old []VertexID, oldLb []LabelID, add []VertexID, addLb []LabelID, del []VertexID, labelled bool) ([]VertexID, []LabelID) {
	if !labelled {
		out := make([]VertexID, 0, len(old)+len(add)-len(del))
		if len(del) == 0 {
			out = append(out, old...)
		} else {
			drop := make(map[VertexID]struct{}, len(del))
			for _, w := range del {
				drop[w] = struct{}{}
			}
			for _, w := range old {
				if _, gone := drop[w]; !gone {
					out = append(out, w)
				}
			}
		}
		out = append(out, add...)
		slices.Sort(out)
		return out, nil
	}
	// Labelled merge: pack (neighbour, label) so one sort co-orders both.
	packed := make([]uint64, 0, len(old)+len(add)-len(del))
	pack := func(w VertexID, lb []LabelID, i int) uint64 {
		var l uint64
		if lb != nil {
			l = uint64(lb[i])
		}
		return uint64(w)<<16 | l
	}
	if len(del) == 0 {
		for i, w := range old {
			packed = append(packed, pack(w, oldLb, i))
		}
	} else {
		drop := make(map[VertexID]struct{}, len(del))
		for _, w := range del {
			drop[w] = struct{}{}
		}
		for i, w := range old {
			if _, gone := drop[w]; !gone {
				packed = append(packed, pack(w, oldLb, i))
			}
		}
	}
	for i, w := range add {
		packed = append(packed, pack(w, addLb, i))
	}
	slices.Sort(packed)
	nb := make([]VertexID, len(packed))
	lb := make([]LabelID, len(packed))
	for i, p := range packed {
		nb[i] = VertexID(p >> 16)
		lb[i] = LabelID(p & 0xFFFF)
	}
	return nb, lb
}

// overlayMaxDeg maintains MaxDegree across an overlay apply: exact without
// a full scan unless a vertex that carried the old maximum shrank.
func overlayMaxDeg(g *Graph, newAdj map[VertexID][]VertexID, touched []VertexID, nv int) int {
	newTouchedMax, oldMaxTouched := 0, false
	for _, v := range touched {
		if int(v) < g.numV && g.Degree(v) == g.maxDeg {
			oldMaxTouched = true
		}
		if d := len(newAdj[v]); d > newTouchedMax {
			newTouchedMax = d
		}
	}
	if newTouchedMax >= g.maxDeg {
		return newTouchedMax
	}
	if !oldMaxTouched {
		return g.maxDeg
	}
	// The old argmax may have shrunk and another vertex may (or may not)
	// still carry the old maximum: recompute over per-vertex degrees (O(N),
	// no adjacency scan).
	maxDeg := 0
	for v := 0; v < nv; v++ {
		d := 0
		if nb, ok := newAdj[VertexID(v)]; ok {
			d = len(nb)
		} else if v < g.numV {
			d = g.Degree(VertexID(v))
		}
		if d > maxDeg {
			maxDeg = d
		}
	}
	return maxDeg
}

// compactFrom materialises the merged view (g plus newAdj, with parallel
// labels from newLab when labelled) as a flat CSR.
func (ng *Graph) compactFrom(g *Graph, newAdj map[VertexID][]VertexID, newLab map[VertexID][]LabelID, nv int, labelled bool) {
	neigh := func(v VertexID) ([]VertexID, []LabelID) {
		if nb, ok := newAdj[v]; ok {
			return nb, newLab[v] // newLab nil when !labelled
		}
		if int(v) < g.numV {
			return g.neighborsAndLabels(v)
		}
		return nil, nil
	}
	offsets := make([]uint64, nv+1)
	total := uint64(0)
	maxDeg := 0
	for v := 0; v < nv; v++ {
		offsets[v] = total
		nb, _ := neigh(VertexID(v))
		d := len(nb)
		total += uint64(d)
		if d > maxDeg {
			maxDeg = d
		}
	}
	offsets[nv] = total
	adj := make([]VertexID, 0, total)
	var elabels []LabelID
	if labelled {
		elabels = make([]LabelID, 0, total)
	}
	for v := 0; v < nv; v++ {
		nb, lb := neigh(VertexID(v))
		adj = append(adj, nb...)
		if labelled {
			if lb == nil {
				elabels = append(elabels, make([]LabelID, len(nb))...)
			} else {
				elabels = append(elabels, lb...)
			}
		}
	}
	ng.offsets, ng.adj, ng.maxDeg = offsets, adj, maxDeg
	if labelled {
		ng.elabels = elabels
		maxEL := LabelID(0)
		for _, l := range elabels {
			if l > maxEL {
				maxEL = l
			}
		}
		ng.numELabels = int(maxEL) + 1
	}
}

// applyLabels carries g's labelling into ng (extended to nv vertices) and
// applies the delta's label changes, rebuilding the per-label index when
// anything changed. It returns the vertices whose label actually changed.
func (ng *Graph) applyLabels(g *Graph, changes []VertexLabel, nv int) []VertexID {
	if g.labels == nil && len(changes) == 0 {
		return nil // stays unlabelled
	}
	// Fast path: labelled graph, same vertex count, no effective change —
	// share the existing label arrays and index.
	if g.labels != nil && nv == g.numV {
		effective := false
		for _, c := range changes {
			if g.labels[c.V] != c.L {
				effective = true
				break
			}
		}
		if !effective {
			ng.labels, ng.labelOff, ng.labelVerts, ng.numLabels = g.labels, g.labelOff, g.labelVerts, g.numLabels
			return nil
		}
	}
	labels := make([]LabelID, nv)
	copy(labels, g.labels) // new vertices default to label 0
	var relabeled []VertexID
	for _, c := range changes {
		if labels[c.V] != c.L {
			labels[c.V] = c.L
			relabeled = append(relabeled, c.V)
		}
	}
	ng.attachLabels(labels)
	return relabeled
}
