package graph

import (
	"slices"
	"testing"
)

// TestFromCSRChecksContent: FromCSR adopts exported content and rejects
// each kind of damage that would send an index out of range later.
func TestFromCSRChecksContent(t *testing.T) {
	var b Builder
	for _, e := range [][3]int{{0, 1, 1}, {0, 2, 0}, {1, 2, 2}, {2, 3, 1}} {
		b.AddLabeledEdge(VertexID(e[0]), VertexID(e[1]), LabelID(e[2]))
	}
	b.SetLabel(3, 1)
	good := b.Build().Export()
	g, err := FromCSR(good)
	if err != nil {
		t.Fatalf("exported content rejected: %v", err)
	}
	if g.NumEdges() != 4 || !slices.Equal(g.Neighbors(2), []VertexID{0, 1, 3}) || g.Label(3) != 1 {
		t.Fatal("FromCSR graph differs from the exported one")
	}

	damage := map[string]func(d *CSRData){
		"offsets short":           func(d *CSRData) { d.Offsets = d.Offsets[:d.NumV] },
		"offsets start past 0":    func(d *CSRData) { d.Offsets[0] = 1 },
		"offsets decrease":        func(d *CSRData) { d.Offsets[1] = d.Offsets[2] + 1 },
		"offsets end early":       func(d *CSRData) { d.Offsets[d.NumV]-- },
		"edge count":              func(d *CSRData) { d.NumE++ },
		"adjacency id = V":        func(d *CSRData) { d.Adj[3] = VertexID(d.NumV) },
		"adjacency id far out":    func(d *CSRData) { d.Adj[0] = 0xFFFFFFF0 },
		"vertex labels short":     func(d *CSRData) { d.Labels = d.Labels[1:] },
		"edge labels short":       func(d *CSRData) { d.ELabels = d.ELabels[1:] },
		"negative vertex count":   func(d *CSRData) { d.NumV = -1 },
		"no offsets, no vertices": func(d *CSRData) { d.NumV, d.Offsets = 0, nil },
	}
	for name, f := range damage {
		d := good
		d.Offsets, d.Adj = slices.Clone(good.Offsets), slices.Clone(good.Adj)
		f(&d)
		if _, err := FromCSR(d); err == nil {
			t.Errorf("%s: FromCSR accepted it", name)
		}
	}
}

// TestLabelIndexTopLabel: the per-label index covers the largest LabelID,
// whose successor wraps around in LabelID arithmetic.
func TestLabelIndexTopLabel(t *testing.T) {
	const top = LabelID(1<<16 - 1)
	var b Builder
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.SetLabel(1, top)
	b.SetLabel(2, top)
	g := b.Build()
	if g.LabelCount(top) != 2 || !slices.Equal(g.VerticesWithLabel(top), []VertexID{1, 2}) {
		t.Fatalf("label %d: count %d, vertices %v; want 2, [1 2]", top, g.LabelCount(top), g.VerticesWithLabel(top))
	}
	if g.LabelCount(0) != 1 || !slices.Equal(g.VerticesWithLabel(0), []VertexID{0}) {
		t.Fatalf("label 0: count %d, vertices %v; want 1, [0]", g.LabelCount(0), g.VerticesWithLabel(0))
	}
}
