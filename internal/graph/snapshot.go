package graph

// Snapshot encode/decode hooks for the persistent store (internal/store):
// a compact CSR snapshot round-trips through CSRData — flat columnar arrays
// that serialise trivially — without exposing the Graph's internals or
// weakening its immutability. Export compacts a delta overlay first, so
// every persisted snapshot is a flat CSR; FromCSR checks the arrays,
// reattaches them (they may alias the store's read buffer) and rebuilds
// only the derived indices that are cheap relative to the adjacency data.

import "fmt"

// CSRData is the raw columnar content of one compact (overlay-free) graph
// snapshot: exactly the state a persisted snapshot carries. The slices may
// alias storage owned by someone else — a store's read buffer on load, the
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
	// to scan the edge-label section.
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
// are adopted as-is (no copy); only the per-label vertex index is rebuilt,
// an O(V) counting sort over the small label array. Before adopting them it
// checks in O(V+E) everything an index into them relies on, and returns an
// error instead of a graph that would panic on first use: the offsets start
// at 0, never decrease and end at len(Adj) = 2·NumE, every adjacency id is
// < NumV, and the label arrays are as long as the vertices and adjacency
// they label. Row order is not checked: content that passes came from
// Export, or was damaged in a way a checksum has to catch.
func FromCSR(d CSRData) (*Graph, error) {
	if err := d.check(); err != nil {
		return nil, err
	}
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
	return g, nil
}

// check validates the CSR invariants FromCSR documents.
func (d CSRData) check() error {
	n := d.NumV
	if n < 0 || len(d.Offsets) != n+1 {
		return fmt.Errorf("graph: %d offsets for %d vertices", len(d.Offsets), n)
	}
	if uint64(len(d.Adj)) != 2*d.NumE {
		return fmt.Errorf("graph: %d adjacency entries for %d edges", len(d.Adj), d.NumE)
	}
	if d.Offsets[0] != 0 {
		return fmt.Errorf("graph: offsets start at %d", d.Offsets[0])
	}
	for v := 0; v < n; v++ {
		if d.Offsets[v+1] < d.Offsets[v] {
			return fmt.Errorf("graph: offsets decrease at vertex %d", v)
		}
	}
	if d.Offsets[n] != uint64(len(d.Adj)) {
		return fmt.Errorf("graph: offsets end at %d, adjacency holds %d", d.Offsets[n], len(d.Adj))
	}
	for i, w := range d.Adj {
		if int(w) >= n {
			return fmt.Errorf("graph: adjacency entry %d is vertex %d of %d", i, w, n)
		}
	}
	if d.Labels != nil && len(d.Labels) != n {
		return fmt.Errorf("graph: %d vertex labels for %d vertices", len(d.Labels), n)
	}
	if d.ELabels != nil && len(d.ELabels) != len(d.Adj) {
		return fmt.Errorf("graph: %d edge labels for %d adjacency entries", len(d.ELabels), len(d.Adj))
	}
	return nil
}
