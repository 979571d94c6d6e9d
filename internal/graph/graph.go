// Package graph provides the in-memory data-graph representation used by
// every engine in this repository: an undirected graph in compressed sparse
// row (CSR) format with sorted adjacency lists, optional vertex labels with
// a per-label vertex index, optional per-edge labels with a
// (srcLabel, edgeLabel) triple index, plus the hash partitioner that
// assigns vertices to machines in the simulated cluster.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// VertexID identifies a data-graph vertex. IDs are dense in [0, NumVertices).
type VertexID = uint32

// LabelID identifies a vertex or edge label. Labels are dense in
// [0, NumLabels). The compact 16-bit representation keeps the label arrays
// at 2 bytes per vertex (or adjacency entry); an unlabelled graph behaves
// as if every vertex — and every edge — carried label 0.
type LabelID = uint16

// Graph is an immutable undirected graph in CSR format. Adjacency lists are
// sorted ascending and contain no self-loops or duplicate edges. A Graph is
// safe for concurrent readers.
//
// A Graph may optionally carry one label per vertex. Labels are metadata
// replicated on every simulated machine (they are tiny compared to the CSR
// arrays), so engines may consult them for any vertex without an RPC. The
// per-label vertex index makes "all vertices with label l" an O(1) slice
// lookup, which label-constrained SCAN sources seed from.
//
// Graphs are versioned: every snapshot carries an epoch (0 for a freshly
// built graph), and Apply derives the next snapshot from a Delta without
// mutating the current one. A small delta is represented as an overlay —
// rebuilt adjacency lists for the touched vertices only, sharing the base
// CSR arrays for everything else — and is compacted back into a flat CSR
// once the overlay grows past a threshold (see Apply).
type Graph struct {
	offsets []uint64
	adj     []VertexID
	numV    int
	numE    uint64 // undirected edge count; adjacency entries == 2*numE
	maxDeg  int
	epoch   uint64 // snapshot version: 0 at Build, +1 per Apply

	// over, when non-nil, holds the full rebuilt adjacency lists of the
	// vertices touched by deltas since the last compaction. Vertices absent
	// from the map read from the base CSR; vertices beyond the base CSR
	// (added by a delta) always live here. overRows counts the adjacency
	// entries held in the overlay.
	over     map[VertexID][]VertexID
	overRows uint64

	labels     []LabelID  // nil for unlabelled graphs
	labelOff   []uint32   // CSR offsets into labelVerts; len numLabels+1
	labelVerts []VertexID // vertices grouped by label, ascending within a label
	numLabels  int        // 1 for unlabelled graphs (the implicit label 0)

	// elabels, when non-nil, is the per-edge label array parallel to adj:
	// elabels[i] is the label of the edge closing adj[i]. Both directions of
	// an undirected edge carry the same label. For overlay snapshots, overEl
	// mirrors over with parallel label slices (every key of over has one).
	elabels    []LabelID
	overEl     map[VertexID][]LabelID
	numELabels int // 1 for edge-unlabelled graphs (the implicit label 0)

	// The (srcLabel, edgeLabel) → vertex triple index is built lazily on
	// first use — one O(E) pass per snapshot, only paid when an
	// edge-label-constrained scan seeds from it.
	tripleOnce  sync.Once
	tripleIdx   map[uint32][]VertexID // srcLabel<<16|edgeLabel → vertices, ascending
	elabelVerts map[LabelID][]VertexID

	// The hub-bitset index (see bitset.go) is built lazily on first use —
	// one overlay-aware O(V+E) pass per snapshot, only paid when an
	// adaptive intersection meets a hub-sized list. hub is published
	// atomically so probe paths (HasEdge) can consult an already-built
	// index without forcing the build.
	hubOnce sync.Once
	hub     atomic.Pointer[hubIndex]
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return g.numV }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() uint64 { return g.numE }

// MaxDegree returns the maximum vertex degree D_G.
func (g *Graph) MaxDegree() int { return g.maxDeg }

// Epoch returns the snapshot version: 0 for a freshly built graph,
// incremented by every Apply.
func (g *Graph) Epoch() uint64 { return g.epoch }

// OverlayRows returns the number of adjacency entries held in the delta
// overlay (0 for a compact snapshot) — an observability hook for tests and
// capacity accounting.
func (g *Graph) OverlayRows() uint64 { return g.overRows }

// Degree returns the degree of v.
func (g *Graph) Degree(v VertexID) int {
	if g.over != nil {
		return len(g.Neighbors(v))
	}
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	if g.over != nil {
		if nb, ok := g.over[v]; ok {
			return nb
		}
		if int(v) >= len(g.offsets)-1 {
			return nil // vertex added by a delta, no base adjacency
		}
	}
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether the undirected edge (u, v) exists. When the
// snapshot's hub-bitset index is already built and an endpoint is a hub,
// the membership test is one bitset probe instead of a binary search over
// the hub's (by definition large) adjacency list; the check never forces
// the index build.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if idx := g.hub.Load(); idx != nil {
		if hb := idx.bits[u]; hb != nil {
			return hb.Has(v)
		}
		if hb := idx.bits[v]; hb != nil {
			return hb.Has(u)
		}
	}
	nu, nv := g.Neighbors(u), g.Neighbors(v)
	if len(nu) > len(nv) {
		nu, v = nv, u
	}
	return ContainsSorted(nu, v)
}

// SizeBytes returns the in-memory size of the CSR arrays (plus any delta
// overlay), used as |E_G| in the optimiser's pulling-cost term and for
// cache-capacity budgeting. Vertex labels are excluded: they are replicated
// metadata, not partitioned adjacency data, so they affect neither pulling
// cost nor cache budgets. Edge labels are included — they ride along the
// partitioned adjacency arrays (2 bytes per entry), so pulling a labelled
// neighbourhood genuinely costs more.
func (g *Graph) SizeBytes() uint64 {
	size := uint64(len(g.offsets))*8 + uint64(len(g.adj))*4 + g.overRows*4
	if g.elabels != nil {
		size += uint64(len(g.elabels))*2 + g.overRows*2
	}
	return size
}

// Labeled reports whether the graph carries an explicit vertex labelling.
func (g *Graph) Labeled() bool { return g.labels != nil }

// NumLabels returns the number of distinct label IDs (max label + 1).
// An unlabelled graph reports 1: every vertex implicitly carries label 0.
func (g *Graph) NumLabels() int {
	if g.labels == nil {
		return 1
	}
	return g.numLabels
}

// Label returns the label of v (0 for every vertex of an unlabelled graph).
func (g *Graph) Label(v VertexID) LabelID {
	if g.labels == nil {
		return 0
	}
	return g.labels[v]
}

// Labels returns the per-vertex label array, or nil for an unlabelled
// graph. The returned slice aliases internal storage; do not modify.
func (g *Graph) Labels() []LabelID { return g.labels }

// LabelCount returns the number of vertices carrying label l. For an
// unlabelled graph every vertex carries the implicit label 0.
func (g *Graph) LabelCount(l LabelID) int {
	if g.labels == nil {
		if l == 0 {
			return g.numV
		}
		return 0
	}
	if int(l) >= g.numLabels {
		return 0
	}
	return int(g.labelOff[int(l)+1] - g.labelOff[l])
}

// VerticesWithLabel returns the ascending vertex list for label l — the
// per-label index that label-constrained scans seed from. It returns nil
// for an unlabelled graph (callers fall back to the full vertex range) and
// an empty slice for a label no vertex carries. Do not modify.
func (g *Graph) VerticesWithLabel(l LabelID) []VertexID {
	if g.labels == nil {
		return nil
	}
	if int(l) >= g.numLabels {
		return g.labelVerts[:0]
	}
	return g.labelVerts[g.labelOff[l]:g.labelOff[int(l)+1]]
}

// WithLabels returns a labelled view of g: a new Graph sharing g's CSR
// arrays with the given per-vertex labels attached (len(labels) must equal
// g.NumVertices()). The original graph is untouched, so every synthetic
// dataset gets a labelled twin without copying adjacency.
func WithLabels(g *Graph, labels []LabelID) *Graph {
	if len(labels) != g.numV {
		panic(fmt.Sprintf("graph: WithLabels got %d labels for %d vertices", len(labels), g.numV))
	}
	ng := &Graph{
		offsets: g.offsets, adj: g.adj, numV: g.numV, numE: g.numE, maxDeg: g.maxDeg,
		epoch: g.epoch, over: g.over, overRows: g.overRows,
		elabels: g.elabels, overEl: g.overEl, numELabels: g.numELabels,
	}
	ng.attachLabels(append([]LabelID(nil), labels...))
	ng.adoptHubIndex(g)
	return ng
}

// EdgeLabeled reports whether the graph carries an explicit edge labelling.
func (g *Graph) EdgeLabeled() bool { return g.elabels != nil }

// NumEdgeLabels returns the number of distinct edge-label IDs (max label
// + 1). An edge-unlabelled graph reports 1: every edge implicitly carries
// label 0. After an overlay Apply the value may be an upper bound (a
// deletion can remove the last edge of the largest label without a rescan).
func (g *Graph) NumEdgeLabels() int {
	if g.elabels == nil {
		return 1
	}
	return g.numELabels
}

// EdgeLabel returns the label of the undirected edge (u, v), or 0 when the
// graph is edge-unlabelled or the edge is absent (callers gate on HasEdge).
func (g *Graph) EdgeLabel(u, v VertexID) LabelID {
	if g.elabels == nil {
		return 0
	}
	nu, lu := g.neighborsAndLabels(u)
	nv, lv := g.neighborsAndLabels(v)
	if len(nu) > len(nv) {
		nu, lu, v = nv, lv, u
	}
	if i, ok := slices.BinarySearch(nu, v); ok {
		return lu[i]
	}
	return 0
}

// NeighborEdgeLabels returns the edge-label list parallel to Neighbors(v):
// entry i is the label of the edge to Neighbors(v)[i]. It returns nil for
// an edge-unlabelled graph (every edge implicitly labelled 0). The slice
// aliases internal storage; do not modify.
func (g *Graph) NeighborEdgeLabels(v VertexID) []LabelID {
	if g.elabels == nil {
		return nil
	}
	_, lb := g.neighborsAndLabels(v)
	return lb
}

// neighborsAndLabels resolves a vertex's adjacency and (when edge-labelled)
// the parallel edge-label slice, overlay-aware.
func (g *Graph) neighborsAndLabels(v VertexID) ([]VertexID, []LabelID) {
	if g.over != nil {
		if nb, ok := g.over[v]; ok {
			return nb, g.overEl[v] // overEl nil for edge-unlabelled graphs
		}
		if int(v) >= len(g.offsets)-1 {
			return nil, nil
		}
	}
	nb := g.adj[g.offsets[v]:g.offsets[v+1]]
	if g.elabels == nil {
		return nb, nil
	}
	return nb, g.elabels[g.offsets[v]:g.offsets[v+1]]
}

// VerticesWithLabeledEdge returns the ascending list of vertices that carry
// vertex label srcLabel (srcLabel < 0 = any) and have at least one incident
// edge labelled el — the (srcLabel, edgeLabel) triple index that
// edge-label-constrained scans seed from. It returns nil for an
// edge-unlabelled graph (callers fall back to the plain per-label index or
// the full vertex range); on an edge-labelled graph nil means no vertex
// qualifies. The first call builds the index (one O(E) pass, memoised per
// snapshot). Do not modify the returned slice.
func (g *Graph) VerticesWithLabeledEdge(srcLabel int, el LabelID) []VertexID {
	if g.elabels == nil {
		return nil
	}
	g.tripleOnce.Do(g.buildTripleIndex)
	if srcLabel < 0 {
		return g.elabelVerts[el]
	}
	return g.tripleIdx[uint32(srcLabel)<<16|uint32(el)]
}

// buildTripleIndex groups vertices by (own vertex label, incident edge
// label): a vertex appears once under every distinct edge label among its
// incident edges, both in the label-specific bucket and the any-source one.
func (g *Graph) buildTripleIndex() {
	g.tripleIdx = map[uint32][]VertexID{}
	g.elabelVerts = map[LabelID][]VertexID{}
	var seen []LabelID // distinct incident edge labels of the current vertex
	for v := 0; v < g.numV; v++ {
		_, lb := g.neighborsAndLabels(VertexID(v))
		seen = seen[:0]
		for _, l := range lb {
			if !slices.Contains(seen, l) {
				seen = append(seen, l)
			}
		}
		sl := uint32(g.Label(VertexID(v)))
		for _, l := range seen {
			g.elabelVerts[l] = append(g.elabelVerts[l], VertexID(v))
			g.tripleIdx[sl<<16|uint32(l)] = append(g.tripleIdx[sl<<16|uint32(l)], VertexID(v))
		}
	}
}

// WithEdgeLabels returns an edge-labelled view of g: a new Graph sharing
// g's CSR arrays with each undirected edge (u, v), u < v, labelled
// label(u, v). label must be a pure function of the canonical endpoint pair
// — it is invoked once per direction. Vertex labels (if any) are carried
// over, so every dataset gets an edge-labelled twin for 2 bytes per
// adjacency entry.
func WithEdgeLabels(g *Graph, label func(u, v VertexID) LabelID) *Graph {
	ng := &Graph{
		offsets: g.offsets, adj: g.adj, numV: g.numV, numE: g.numE, maxDeg: g.maxDeg,
		epoch: g.epoch, over: g.over, overRows: g.overRows,
		labels: g.labels, labelOff: g.labelOff, labelVerts: g.labelVerts, numLabels: g.numLabels,
	}
	canon := func(a, b VertexID) LabelID {
		if a > b {
			a, b = b, a
		}
		return label(a, b)
	}
	maxL := LabelID(0)
	assign := func(ls []LabelID, v VertexID, nb []VertexID) {
		for i, u := range nb {
			l := canon(v, u)
			ls[i] = l
			if l > maxL {
				maxL = l
			}
		}
	}
	ng.elabels = make([]LabelID, len(g.adj))
	for v := 0; v < len(g.offsets)-1; v++ {
		if g.over != nil {
			if _, ok := g.over[VertexID(v)]; ok {
				continue // overlaid: base entries are never read
			}
		}
		assign(ng.elabels[g.offsets[v]:g.offsets[v+1]], VertexID(v), g.adj[g.offsets[v]:g.offsets[v+1]])
	}
	if g.over != nil {
		ng.overEl = make(map[VertexID][]LabelID, len(g.over))
		for v, nb := range g.over {
			ls := make([]LabelID, len(nb))
			assign(ls, v, nb)
			ng.overEl[v] = ls
		}
	}
	ng.numELabels = int(maxL) + 1
	ng.adoptHubIndex(g)
	return ng
}

// attachLabels stores the label array and builds the per-label CSR index
// (counting sort by label, ascending vertex ID within each label) plus the
// label-frequency view the optimiser's statistics consume.
func (g *Graph) attachLabels(labels []LabelID) {
	g.labels = labels
	maxL := LabelID(0)
	for _, l := range labels {
		if l > maxL {
			maxL = l
		}
	}
	g.numLabels = int(maxL) + 1
	off := make([]uint32, g.numLabels+1)
	for _, l := range labels {
		off[int(l)+1]++
	}
	for i := 1; i <= g.numLabels; i++ {
		off[i] += off[i-1]
	}
	verts := make([]VertexID, len(labels))
	cursor := append([]uint32(nil), off[:g.numLabels]...)
	for v, l := range labels {
		verts[cursor[l]] = VertexID(v)
		cursor[l]++
	}
	g.labelOff = off
	g.labelVerts = verts
}

// Builder accumulates edges and produces a Graph. The zero value is ready to
// use. Duplicate edges and self-loops are dropped at Build time. A Builder
// must not be reused after Build: the built Graph aliases the Builder's
// buffers, so further mutation would corrupt it — every method panics once
// Build has run.
type Builder struct {
	src, dst []VertexID
	elab     []LabelID // per-edge labels parallel to src/dst; nil until AddLabeledEdge
	maxID    VertexID
	hasEdge  bool
	numFixed int       // explicit vertex count, if set
	labels   []LabelID // sparse until Build; missing entries default to 0
	labelled bool
	built    bool
}

// checkReuse enforces the single-Build contract.
func (b *Builder) checkReuse() {
	if b.built {
		panic("graph: Builder reused after Build — create a new Builder per graph")
	}
}

// SetNumVertices forces the vertex count (useful when trailing vertices are
// isolated). Build panics if an edge references a vertex >= n.
func (b *Builder) SetNumVertices(n int) {
	b.checkReuse()
	b.numFixed = n
}

// SetLabel records the label of v. Calling it at least once makes the built
// graph labelled; vertices never assigned a label default to label 0.
func (b *Builder) SetLabel(v VertexID, l LabelID) {
	b.checkReuse()
	b.labelled = true
	if int(v) >= len(b.labels) {
		grown := make([]LabelID, v+1)
		copy(grown, b.labels)
		b.labels = grown
	}
	b.labels[v] = l
	if v > b.maxID {
		b.maxID = v
	}
}

// AddEdge records the undirected edge (u, v). Self-loops are ignored. In a
// Builder that has seen AddLabeledEdge, plain edges carry edge label 0.
func (b *Builder) AddEdge(u, v VertexID) {
	b.checkReuse()
	if u == v {
		return
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	if b.elab != nil {
		b.elab = append(b.elab, 0)
	}
	if u > b.maxID {
		b.maxID = u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.hasEdge = true
}

// AddLabeledEdge records the undirected edge (u, v) carrying edge label l.
// Calling it at least once makes the built graph edge-labelled; edges added
// via AddEdge carry label 0. When duplicates of one edge disagree on the
// label, the smallest label wins (deterministically, independent of
// insertion order).
func (b *Builder) AddLabeledEdge(u, v VertexID, l LabelID) {
	b.checkReuse()
	if u == v {
		return
	}
	if b.elab == nil {
		b.elab = make([]LabelID, len(b.src))
	}
	b.src = append(b.src, u)
	b.dst = append(b.dst, v)
	b.elab = append(b.elab, l)
	if u > b.maxID {
		b.maxID = u
	}
	if v > b.maxID {
		b.maxID = v
	}
	b.hasEdge = true
}

// Build finalises the CSR structure. The Builder must not be reused after;
// any further call on it (including a second Build) panics.
func (b *Builder) Build() *Graph {
	b.checkReuse()
	b.built = true
	n := 0
	if b.hasEdge || b.labelled {
		n = int(b.maxID) + 1
	}
	if b.numFixed > 0 {
		if n > b.numFixed {
			panic(fmt.Sprintf("graph: edge references vertex %d >= fixed count %d", b.maxID, b.numFixed))
		}
		n = b.numFixed
	}
	deg := make([]uint64, n+1)
	for i := range b.src {
		deg[b.src[i]+1]++
		deg[b.dst[i]+1]++
	}
	for i := 1; i <= n; i++ {
		deg[i] += deg[i-1]
	}
	cursor := make([]uint64, n)
	for i := 0; i < n; i++ {
		cursor[i] = deg[i]
	}
	var adj []VertexID
	var elabels []LabelID
	offsets := make([]uint64, n+1)
	w := uint64(0)
	maxDeg := 0
	if b.elab == nil {
		adj = make([]VertexID, deg[n])
		for i := range b.src {
			u, v := b.src[i], b.dst[i]
			adj[cursor[u]] = v
			cursor[u]++
			adj[cursor[v]] = u
			cursor[v]++
		}
		// Sort and dedupe each adjacency list in place, then recompact.
		for v := 0; v < n; v++ {
			lo, hi := deg[v], deg[v+1]
			seg := adj[lo:hi]
			slices.Sort(seg)
			offsets[v] = w
			var last VertexID
			first := true
			for _, u := range seg {
				if first || u != last {
					adj[w] = u
					w++
					last = u
					first = false
				}
			}
			if d := int(w - offsets[v]); d > maxDeg {
				maxDeg = d
			}
		}
		adj = adj[:w:w]
	} else {
		// Edge-labelled build: pack (neighbour, label) into one key so
		// sorting co-sorts labels with adjacency; duplicates of an edge are
		// adjacent after the sort and the first (smallest label) is kept.
		packed := make([]uint64, deg[n])
		for i := range b.src {
			u, v, l := b.src[i], b.dst[i], uint64(b.elab[i])
			packed[cursor[u]] = uint64(v)<<16 | l
			cursor[u]++
			packed[cursor[v]] = uint64(u)<<16 | l
			cursor[v]++
		}
		adj = make([]VertexID, len(packed))
		elabels = make([]LabelID, len(packed))
		for v := 0; v < n; v++ {
			lo, hi := deg[v], deg[v+1]
			seg := packed[lo:hi]
			slices.Sort(seg)
			offsets[v] = w
			var last VertexID
			first := true
			for _, p := range seg {
				u := VertexID(p >> 16)
				if first || u != last {
					adj[w] = u
					elabels[w] = LabelID(p & 0xFFFF)
					w++
					last = u
					first = false
				}
			}
			if d := int(w - offsets[v]); d > maxDeg {
				maxDeg = d
			}
		}
		adj = adj[:w:w]
		elabels = elabels[:w:w]
	}
	offsets[n] = w
	g := &Graph{offsets: offsets, adj: adj, numV: n, numE: w / 2, maxDeg: maxDeg}
	if elabels != nil {
		g.elabels = elabels
		maxEL := LabelID(0)
		for _, l := range elabels {
			if l > maxEL {
				maxEL = l
			}
		}
		g.numELabels = int(maxEL) + 1
	}
	if b.labelled {
		labels := b.labels
		if len(labels) < n {
			grown := make([]LabelID, n)
			copy(grown, labels)
			labels = grown
		}
		g.attachLabels(labels[:n:n])
	}
	return g
}

// FromEdges builds a graph from an edge list.
func FromEdges(edges [][2]VertexID) *Graph {
	var b Builder
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line;
// lines starting with '#' or '%' are comments) and builds a graph.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, false)
}

// ReadLabeledEdgeList parses the labelled edge-list format: plain "u v"
// lines are undirected edges, "u v <label>" lines are edge-labelled edges,
// and lines of the form "v <id> <label>" declare vertex labels ('#'/'%'
// comments as in ReadEdgeList). A file with no label lines yields an
// unlabelled graph, so the format is a strict superset of the plain one.
// Parse errors carry the 1-based line number and the offending line.
func ReadLabeledEdgeList(r io.Reader) (*Graph, error) {
	return readEdgeList(r, true)
}

func readEdgeList(r io.Reader, labelled bool) (*Graph, error) {
	var b Builder
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	// Every malformed record reports its 1-based line number and the line
	// itself, so a bad row in a multi-gigabyte file is findable.
	badLine := func(format string, args ...any) error {
		msg := fmt.Sprintf(format, args...)
		return fmt.Errorf("graph: line %d: %s", lineNo, msg)
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if labelled && fields[0] == "v" {
			if len(fields) != 3 {
				return nil, badLine("label line wants \"v <id> <label>\", got %q", line)
			}
			id, err := strconv.ParseUint(fields[1], 10, 32)
			if err != nil {
				return nil, badLine("bad vertex id in %q: %v", line, err)
			}
			l, err := strconv.ParseUint(fields[2], 10, 16)
			if err != nil {
				return nil, badLine("bad vertex label in %q: %v", line, err)
			}
			b.SetLabel(VertexID(id), LabelID(l))
			continue
		}
		if len(fields) < 2 || (!labelled && len(fields) > 2) || len(fields) > 3 {
			want := "\"u v\""
			if labelled {
				want = "\"u v\" or \"u v <label>\""
			}
			return nil, badLine("edge line wants %s, got %q", want, line)
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, badLine("bad endpoint in %q: %v", line, err)
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, badLine("bad endpoint in %q: %v", line, err)
		}
		if labelled && len(fields) == 3 {
			l, err := strconv.ParseUint(fields[2], 10, 16)
			if err != nil {
				return nil, badLine("bad edge label in %q: %v", line, err)
			}
			b.AddLabeledEdge(VertexID(u), VertexID(v), LabelID(l))
			continue
		}
		b.AddEdge(VertexID(u), VertexID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b.Build(), nil
}

// WriteEdgeList writes the graph as "u v" lines with u < v — or "u v l"
// lines when the graph is edge-labelled (label-0 edges included, so the
// labelling round-trips). For a vertex-labelled graph, "v <id> <label>"
// lines precede the edges (the ReadLabeledEdgeList format); label-0 lines
// are written too, so that labelling round-trips as well.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if g.labels != nil {
		for v, l := range g.labels {
			if _, err := fmt.Fprintf(bw, "v %d %d\n", v, l); err != nil {
				return err
			}
		}
	}
	for v := 0; v < g.numV; v++ {
		nb, lb := g.neighborsAndLabels(VertexID(v))
		for i, u := range nb {
			if VertexID(v) >= u {
				continue
			}
			var err error
			if lb != nil {
				_, err = fmt.Fprintf(bw, "%d %d %d\n", v, u, lb[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d %d\n", v, u)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
