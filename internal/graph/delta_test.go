package graph

import (
	"math/rand"
	"testing"
)

// rebuildFromScratch materialises the expected post-delta graph with a
// fresh Builder — the oracle Apply must agree with.
func rebuildFromScratch(t *testing.T, g *Graph, d Delta) *Graph {
	t.Helper()
	edges := map[[2]VertexID]bool{}
	for v := 0; v < g.NumVertices(); v++ {
		for _, u := range g.Neighbors(VertexID(v)) {
			if VertexID(v) < u {
				edges[[2]VertexID{VertexID(v), u}] = true
			}
		}
	}
	canon := func(e [2]VertexID) [2]VertexID {
		if e[0] > e[1] {
			e[0], e[1] = e[1], e[0]
		}
		return e
	}
	for _, e := range d.Delete {
		delete(edges, canon(e))
	}
	for _, e := range d.Insert {
		if e[0] != e[1] {
			edges[canon(e)] = true
		}
	}
	var b Builder
	n := g.NumVertices()
	for e := range edges {
		b.AddEdge(e[0], e[1])
		if int(e[1])+1 > n {
			n = int(e[1]) + 1
		}
	}
	for _, vl := range d.Labels {
		if int(vl.V)+1 > n {
			n = int(vl.V) + 1
		}
	}
	b.SetNumVertices(n)
	if ls := g.Labels(); ls != nil || len(d.Labels) > 0 {
		for v, l := range ls {
			b.SetLabel(VertexID(v), l)
		}
		for v := len(ls); v < n; v++ {
			b.SetLabel(VertexID(v), 0)
		}
		for _, vl := range d.Labels {
			b.SetLabel(vl.V, vl.L)
		}
	}
	return b.Build()
}

func assertSameGraph(t *testing.T, got, want *Graph) {
	t.Helper()
	if got.NumVertices() != want.NumVertices() {
		t.Fatalf("NumVertices: got %d want %d", got.NumVertices(), want.NumVertices())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges: got %d want %d", got.NumEdges(), want.NumEdges())
	}
	if got.MaxDegree() != want.MaxDegree() {
		t.Fatalf("MaxDegree: got %d want %d", got.MaxDegree(), want.MaxDegree())
	}
	if got.NumLabels() != want.NumLabels() {
		t.Fatalf("NumLabels: got %d want %d", got.NumLabels(), want.NumLabels())
	}
	for v := 0; v < want.NumVertices(); v++ {
		vid := VertexID(v)
		gn, wn := got.Neighbors(vid), want.Neighbors(vid)
		if len(gn) != len(wn) {
			t.Fatalf("Neighbors(%d): got %v want %v", v, gn, wn)
		}
		for i := range gn {
			if gn[i] != wn[i] {
				t.Fatalf("Neighbors(%d): got %v want %v", v, gn, wn)
			}
		}
		if got.Degree(vid) != want.Degree(vid) {
			t.Fatalf("Degree(%d): got %d want %d", v, got.Degree(vid), want.Degree(vid))
		}
		if got.Label(vid) != want.Label(vid) {
			t.Fatalf("Label(%d): got %d want %d", v, got.Label(vid), want.Label(vid))
		}
	}
	for l := 0; l < want.NumLabels(); l++ {
		gv, wv := got.VerticesWithLabel(LabelID(l)), want.VerticesWithLabel(LabelID(l))
		if len(gv) != len(wv) {
			t.Fatalf("VerticesWithLabel(%d): got %v want %v", l, gv, wv)
		}
		for i := range gv {
			if gv[i] != wv[i] {
				t.Fatalf("VerticesWithLabel(%d): got %v want %v", l, gv, wv)
			}
		}
	}
}

func pathGraph(n int) *Graph {
	var b Builder
	for i := 0; i < n-1; i++ {
		b.AddEdge(VertexID(i), VertexID(i+1))
	}
	return b.Build()
}

func TestApplyOverlaySmallDelta(t *testing.T) {
	g := pathGraph(100)
	d := Delta{
		Insert: [][2]VertexID{{0, 50}, {10, 90}},
		Delete: [][2]VertexID{{5, 6}},
	}
	ng, ap := Apply(g, d)
	if ap.Compacted {
		t.Fatalf("small delta should stay an overlay")
	}
	if ng.OverlayRows() == 0 {
		t.Fatalf("overlay snapshot reports no overlay rows")
	}
	if ng.Epoch() != g.Epoch()+1 {
		t.Fatalf("epoch: got %d want %d", ng.Epoch(), g.Epoch()+1)
	}
	if ap.Inserted.Len() != 2 || ap.Deleted.Len() != 1 {
		t.Fatalf("effective sets: ins=%d del=%d", ap.Inserted.Len(), ap.Deleted.Len())
	}
	assertSameGraph(t, ng, rebuildFromScratch(t, g, d))
	// The old snapshot is untouched.
	if g.HasEdge(0, 50) || !g.HasEdge(5, 6) {
		t.Fatalf("Apply mutated the base snapshot")
	}
	if !ng.HasEdge(0, 50) || ng.HasEdge(5, 6) {
		t.Fatalf("new snapshot missing the delta")
	}
}

func TestApplyCompactsPastThreshold(t *testing.T) {
	g := pathGraph(20)
	var ins [][2]VertexID
	for i := 0; i < 18; i++ {
		ins = append(ins, [2]VertexID{VertexID(i), VertexID(i + 2)})
	}
	ng, ap := Apply(g, Delta{Insert: ins})
	if !ap.Compacted {
		t.Fatalf("large delta should compact (overlay rows %d of %d)", ng.OverlayRows(), 2*ng.NumEdges())
	}
	if ng.OverlayRows() != 0 {
		t.Fatalf("compacted snapshot still reports overlay rows")
	}
	assertSameGraph(t, ng, rebuildFromScratch(t, g, Delta{Insert: ins}))
}

func TestApplyNoOpDeltaSharesStorage(t *testing.T) {
	g := pathGraph(10)
	ng, ap := Apply(g, Delta{Insert: [][2]VertexID{{0, 1}}, Delete: [][2]VertexID{{7, 9}}})
	if ap.Inserted.Len() != 0 || ap.Deleted.Len() != 0 || len(ap.Touched) != 0 {
		t.Fatalf("no-op delta reported effective changes: %+v", ap)
	}
	if ng.Epoch() != 1 {
		t.Fatalf("no-op delta must still advance the epoch, got %d", ng.Epoch())
	}
	assertSameGraph(t, ng, g)
}

func TestApplyGrowsVertexSet(t *testing.T) {
	g := pathGraph(5)
	d := Delta{Insert: [][2]VertexID{{4, 9}, {9, 10}}}
	ng, _ := Apply(g, d)
	if ng.NumVertices() != 11 {
		t.Fatalf("NumVertices: got %d want 11", ng.NumVertices())
	}
	assertSameGraph(t, ng, rebuildFromScratch(t, g, d))
	// Vertices 5..8 exist but are isolated.
	if ng.Degree(6) != 0 || len(ng.Neighbors(6)) != 0 {
		t.Fatalf("gap vertex should be isolated")
	}
}

// TestApplyLabelOnlyGrowth: a delta with no edge changes can still grow
// the vertex set by labelling a vertex beyond the current range; every
// accessor must stay in bounds (regression: the empty-overlay fast path
// used to share base offsets that no longer covered the new vertices).
func TestApplyLabelOnlyGrowth(t *testing.T) {
	g := pathGraph(3)
	ng, ap := Apply(g, Delta{Labels: []VertexLabel{{V: 10, L: 2}}})
	if ng.NumVertices() != 11 {
		t.Fatalf("NumVertices: got %d want 11", ng.NumVertices())
	}
	if ap.Inserted.Len() != 0 || ap.Deleted.Len() != 0 {
		t.Fatalf("label-only delta reported edge changes")
	}
	for v := 0; v < ng.NumVertices(); v++ {
		_ = ng.Neighbors(VertexID(v)) // must not panic past the base CSR
		_ = ng.Degree(VertexID(v))
	}
	if ng.Label(10) != 2 || ng.Label(5) != 0 {
		t.Fatalf("labels: got %d/%d want 2/0", ng.Label(10), ng.Label(5))
	}
	assertSameGraph(t, ng, rebuildFromScratch(t, g, Delta{Labels: []VertexLabel{{V: 10, L: 2}}}))
}

func TestApplyLabelChanges(t *testing.T) {
	g := WithLabels(pathGraph(6), []LabelID{0, 1, 0, 1, 0, 1})
	d := Delta{
		Insert: [][2]VertexID{{0, 3}},
		Labels: []VertexLabel{{V: 2, L: 3}, {V: 4, L: 0}}, // second is a no-op
	}
	ng, ap := Apply(g, d)
	if len(ap.Relabeled) != 1 || ap.Relabeled[0] != 2 {
		t.Fatalf("Relabeled: got %v want [2]", ap.Relabeled)
	}
	assertSameGraph(t, ng, rebuildFromScratch(t, g, d))
	if g.Label(2) != 0 {
		t.Fatalf("Apply mutated the base labelling")
	}
}

func TestApplyDeleteReinsertChurn(t *testing.T) {
	g := pathGraph(4)
	// Edge (1,2) deleted and reinserted in one delta: present in both
	// effective sets, final graph unchanged on that edge.
	ng, ap := Apply(g, Delta{Insert: [][2]VertexID{{1, 2}}, Delete: [][2]VertexID{{2, 1}}})
	if !ap.Inserted.Has(1, 2) || !ap.Deleted.Has(1, 2) {
		t.Fatalf("churned edge must be in both sets: ins=%v del=%v", ap.Inserted.Edges(), ap.Deleted.Edges())
	}
	if !ng.HasEdge(1, 2) {
		t.Fatalf("churned edge missing from new snapshot")
	}
	assertSameGraph(t, ng, g)
}

// assertOverlayRows checks the overlay row count Apply carries forward
// against a recount of the overlay lists.
func assertOverlayRows(t *testing.T, step int, g *Graph) {
	t.Helper()
	var want uint64
	for _, nb := range g.over {
		want += uint64(len(nb))
	}
	if got := g.OverlayRows(); got != want {
		t.Fatalf("step %d: OverlayRows %d, overlay lists hold %d", step, got, want)
	}
}

// TestApplyRandomChain stacks random deltas — inserts, deletes, edge and
// vertex relabels; overlay and compact paths; labelled and unlabelled — and
// cross-checks every snapshot against a from-scratch rebuild, and its
// overlay row count against a recount.
func TestApplyRandomChain(t *testing.T) {
	for _, labelled := range []bool{false, true} {
		rng := rand.New(rand.NewSource(7))
		var b Builder
		n := 60
		b.SetNumVertices(n)
		for i := 0; i < 150; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		if labelled {
			for v := 0; v < n; v++ {
				b.SetLabel(VertexID(v), LabelID(rng.Intn(4)))
			}
		}
		g := b.Build()
		for step := 0; step < 12; step++ {
			var d Delta
			nOps := 1 + rng.Intn(20)
			for i := 0; i < nOps; i++ {
				u := VertexID(rng.Intn(n + 5))
				v := VertexID(rng.Intn(n + 5))
				if rng.Intn(2) == 0 {
					d.Insert = append(d.Insert, [2]VertexID{u, v})
				} else {
					d.Delete = append(d.Delete, [2]VertexID{u, v})
				}
			}
			if labelled && rng.Intn(2) == 0 {
				d.Labels = append(d.Labels, VertexLabel{V: VertexID(rng.Intn(n)), L: LabelID(rng.Intn(4))})
			}
			if u := VertexID(rng.Intn(g.NumVertices())); rng.Intn(3) == 0 && g.Degree(u) > 0 {
				nb := g.Neighbors(u)
				d.Relabel = append(d.Relabel, EdgeLabel{U: u, V: nb[rng.Intn(len(nb))], L: LabelID(rng.Intn(3))})
			}
			want := rebuildFromScratch(t, g, d)
			// Alternate representations: a forced compaction every third
			// step, an overlay stacked on the previous overlay otherwise.
			frac := 1.0
			if step%3 == 2 {
				frac = 0.0
			}
			ng, _ := ApplyThreshold(g, d, frac)
			if ng.Epoch() != g.Epoch()+1 {
				t.Fatalf("step %d: epoch %d after %d", step, ng.Epoch(), g.Epoch())
			}
			assertSameGraph(t, ng, want)
			assertOverlayRows(t, step, ng)
			// HasEdge spot checks through the overlay.
			for i := 0; i < 50; i++ {
				u, v := VertexID(rng.Intn(n)), VertexID(rng.Intn(n))
				if ng.HasEdge(u, v) != want.HasEdge(u, v) {
					t.Fatalf("step %d: HasEdge(%d,%d) mismatch", step, u, v)
				}
			}
			g = ng
			if g.NumVertices() > n {
				n = g.NumVertices()
			}
		}
	}
}

func TestEdgeSet(t *testing.T) {
	s := NewEdgeSet([][2]VertexID{{3, 1}, {1, 3}, {2, 2}, {4, 5}})
	if s.Len() != 2 {
		t.Fatalf("Len: got %d want 2 (dedupe + self-loop drop)", s.Len())
	}
	if !s.Has(1, 3) || !s.Has(3, 1) || s.Has(2, 2) || s.Has(1, 2) {
		t.Fatalf("Has gives wrong membership")
	}
	es := s.Edges()
	if len(es) != 2 || es[0] != [2]VertexID{1, 3} || es[1] != [2]VertexID{4, 5} {
		t.Fatalf("Edges: got %v", es)
	}
	var nilSet *EdgeSet
	if nilSet.Has(1, 2) || nilSet.Len() != 0 || nilSet.Edges() != nil {
		t.Fatalf("nil EdgeSet must behave as empty")
	}
}

func TestBuilderReusePanics(t *testing.T) {
	var b Builder
	b.AddEdge(0, 1)
	b.Build()
	for name, f := range map[string]func(){
		"AddEdge":        func() { b.AddEdge(1, 2) },
		"SetLabel":       func() { b.SetLabel(0, 1) },
		"SetNumVertices": func() { b.SetNumVertices(5) },
		"Build":          func() { b.Build() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s after Build did not panic", name)
				}
			}()
			f()
		}()
	}
}
