package graph

// Snapshot encode/decode hooks for the persistent store (internal/store):
// a compact CSR snapshot round-trips through CSRData — flat columnar arrays
// that serialise (and mmap) trivially — without exposing the Graph's
// internals or weakening its immutability. Export compacts a delta overlay
// first, so every persisted snapshot is a flat CSR; FromCSR reattaches the
// arrays (which may alias read-only mmap'd pages) and rebuilds only the
// derived indices that are cheap relative to the adjacency data.

// CSRData is the raw columnar content of one compact (overlay-free) graph
// snapshot: exactly the state a persisted snapshot carries. The slices may
// alias storage owned by someone else — a store's mmap'd pages on load, the
// graph's own arrays on export — and must be treated as read-only.
type CSRData struct {
	Offsets []uint64   // len NumV+1; Offsets[NumV] == len(Adj)
	Adj     []VertexID // concatenated sorted adjacency, 2*NumE entries
	NumV    int
	NumE    uint64
	MaxDeg  int
	Epoch   uint64
	Labels  []LabelID // per-vertex labels; nil for an unlabelled graph
	ELabels []LabelID // per-edge labels parallel to Adj; nil if edge-unlabelled
	// NumELabels is the edge-label alphabet size (max label + 1; 0 when
	// ELabels is nil). Persisted rather than recomputed so loading never has
	// to scan the (possibly cold, mmap'd) edge-label section.
	NumELabels int
}

// Export returns the graph's columnar snapshot content. A snapshot holding
// a delta overlay is compacted first (one O(V+E) pass — the same work a
// threshold compaction pays); a compact snapshot exports its own arrays
// without copying. The returned slices alias graph storage: read-only.
func (g *Graph) Export() CSRData {
	g = g.Compact()
	return CSRData{
		Offsets:    g.offsets,
		Adj:        g.adj,
		NumV:       g.numV,
		NumE:       g.numE,
		MaxDeg:     g.maxDeg,
		Epoch:      g.epoch,
		Labels:     g.labels,
		ELabels:    g.elabels,
		NumELabels: g.numELabels,
	}
}

// Compact returns a logically identical snapshot holding a flat CSR: g
// itself when it already is one, otherwise a new Graph with the overlay
// folded in (same epoch — compaction changes representation, not version).
func (g *Graph) Compact() *Graph {
	if g.over == nil {
		return g
	}
	ng := &Graph{numV: g.numV, numE: g.numE, epoch: g.epoch}
	ng.compactFrom(g, nil, nil, g.numV, g.elabels != nil)
	ng.labels, ng.labelOff, ng.labelVerts, ng.numLabels = g.labels, g.labelOff, g.labelVerts, g.numLabels
	return ng
}

// FromCSR reconstructs a Graph from persisted columnar content. The arrays
// are adopted as-is (no copy — they may be mmap'd, paging in lazily as
// queries touch them); only the per-label vertex index is rebuilt, an O(V)
// counting sort over the small label array. The caller guarantees the data
// came from Export (sorted deduped adjacency, consistent counts): FromCSR
// validates shape, not content.
func FromCSR(d CSRData) *Graph {
	g := &Graph{
		offsets: d.Offsets,
		adj:     d.Adj,
		numV:    d.NumV,
		numE:    d.NumE,
		maxDeg:  d.MaxDeg,
		epoch:   d.Epoch,
	}
	if d.ELabels != nil {
		g.elabels = d.ELabels
		g.numELabels = d.NumELabels
		if g.numELabels < 1 {
			g.numELabels = 1
		}
	}
	if d.Labels != nil {
		// attachLabels copies nothing but builds the per-label CSR index the
		// label-constrained scans seed from.
		g.attachLabels(d.Labels)
	}
	return g
}
