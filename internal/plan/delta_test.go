package plan

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/query"
)

// TestUpdateStatsMatchesRecompute: incremental statistics after a delta
// must equal a from-scratch ComputeStats on the new snapshot. Degrees stay
// small enough that every moment is an exactly representable integer, so
// the comparison is bitwise.
func TestUpdateStatsMatchesRecompute(t *testing.T) {
	for _, labelled := range []bool{false, true} {
		rng := rand.New(rand.NewSource(11))
		var b graph.Builder
		n := 80
		b.SetNumVertices(n)
		for i := 0; i < 200; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		if labelled {
			for v := 0; v < n; v++ {
				b.SetLabel(graph.VertexID(v), graph.LabelID(rng.Intn(5)))
			}
		}
		g := b.Build()
		stats := ComputeStats(g)
		for step := 0; step < 10; step++ {
			var d graph.Delta
			for i := 0; i < 1+rng.Intn(15); i++ {
				u := graph.VertexID(rng.Intn(n + 4))
				v := graph.VertexID(rng.Intn(n + 4))
				if rng.Intn(2) == 0 {
					d.Insert = append(d.Insert, [2]graph.VertexID{u, v})
				} else {
					d.Delete = append(d.Delete, [2]graph.VertexID{u, v})
				}
			}
			if labelled && rng.Intn(2) == 0 {
				d.Labels = append(d.Labels, graph.VertexLabel{V: graph.VertexID(rng.Intn(n)), L: graph.LabelID(rng.Intn(5))})
			}
			ng, applied := graph.Apply(g, d)
			got := UpdateStats(stats, g, ng, applied)
			want := ComputeStats(ng)
			if got.N != want.N || got.M != want.M || got.MaxDeg != want.MaxDeg || got.Epoch != want.Epoch {
				t.Fatalf("step %d: scalars: got %+v want %+v", step, got, want)
			}
			for k := range want.Moments {
				if got.Moments[k] != want.Moments[k] {
					t.Fatalf("step %d: Moments[%d]: got %v want %v", step, k, got.Moments[k], want.Moments[k])
				}
			}
			if len(got.LabelCounts) != len(want.LabelCounts) {
				t.Fatalf("step %d: LabelCounts len: got %d want %d", step, len(got.LabelCounts), len(want.LabelCounts))
			}
			for l := range want.LabelCounts {
				if got.LabelCounts[l] != want.LabelCounts[l] {
					t.Fatalf("step %d: LabelCounts[%d]: got %v want %v", step, l, got.LabelCounts[l], want.LabelCounts[l])
				}
			}
			if got.Fingerprint() != want.Fingerprint() {
				t.Fatalf("step %d: fingerprints differ", step)
			}
			if got.Fingerprint() == stats.Fingerprint() {
				t.Fatalf("step %d: fingerprint did not change across the epoch", step)
			}
			g, stats = ng, got
			if g.NumVertices() > n {
				n = g.NumVertices()
			}
		}
	}
}

// TestStatsFingerprintEpoch: two snapshots with identical statistics but
// different epochs must fingerprint differently — that is what makes a
// pre-update plan unservable after the update.
func TestStatsFingerprintEpoch(t *testing.T) {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}})
	s := ComputeStats(g)
	s2 := s
	s2.Epoch++
	if s.Fingerprint() == s2.Fingerprint() {
		t.Fatalf("epoch change must change the stats fingerprint")
	}
}

func TestCacheInvalidateGraph(t *testing.T) {
	c := NewCache(8)
	q := query.Triangle()
	p := &Plan{Q: q, Name: "test"}
	oldFP, newFP := uint64(0xabc), uint64(0xdef)
	key := func(family string, statsFP uint64) Key {
		return Key{QueryFP: q.Fingerprint(), Family: family, Machines: 2, StatsFP: statsFP}
	}
	store(c, key("optimal", oldFP), p)
	store(c, key("wco", oldFP), p)
	store(c, key("optimal", newFP), p)
	if n := c.InvalidateGraph(oldFP); n != 2 {
		t.Fatalf("InvalidateGraph evicted %d, want 2", n)
	}
	if _, ok := lookup(c, key("optimal", oldFP)); ok {
		t.Fatalf("stale entry survived InvalidateGraph")
	}
	if _, ok := lookup(c, key("optimal", newFP)); !ok {
		t.Fatalf("live entry evicted by InvalidateGraph")
	}
	if n := c.InvalidateGraph(oldFP); n != 0 {
		t.Fatalf("second InvalidateGraph evicted %d, want 0", n)
	}
}

// TestTranslateDelta checks the structural invariants of the difference
// rewriting: one dataflow per query edge, each valid, single-stage, with a
// DeltaScan pinning that edge, every query edge enforced, and old-edge
// restrictions exactly on the earlier edge positions.
func TestTranslateDelta(t *testing.T) {
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q3(), query.Q5()} {
		flows, err := TranslateDelta(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if len(flows) != q.NumEdges() {
			t.Fatalf("%s: %d dataflows for %d edges", q.Name(), len(flows), q.NumEdges())
		}
		for i, d := range flows {
			if err := d.Validate(); err != nil {
				t.Fatalf("%s edge %d: %v", q.Name(), i, err)
			}
			if len(d.Stages) != 1 || d.Stages[0].DeltaSrc == nil {
				t.Fatalf("%s edge %d: want one DeltaScan stage", q.Name(), i)
			}
			ds := d.Stages[0].DeltaSrc
			e := q.Edges()[i]
			if ds.QA != e[0] || ds.QB != e[1] {
				t.Fatalf("%s edge %d: scan pins (%d,%d), want (%d,%d)", q.Name(), i, ds.QA, ds.QB, e[0], e[1])
			}
			// Every query edge is enforced exactly once.
			enforced := enforcedEdges(d)
			for _, qe := range q.Edges() {
				if enforced[qe] != 1 {
					t.Fatalf("%s edge %d: query edge %v enforced %d times", q.Name(), i, qe, enforced[qe])
				}
			}
			// Old-edge restrictions cover exactly the edges before the pin.
			edgeIdx := map[[2]int]int{}
			for j, qe := range q.Edges() {
				edgeIdx[qe] = j
			}
			restricted := map[[2]int]bool{}
			layout := d.Stages[0].SourceLayout
			for _, ex := range d.Stages[0].Extends {
				oldSet := map[int]bool{}
				for _, s := range ex.OldEdgeSlots {
					oldSet[s] = true
				}
				for _, s := range ex.ExtSlots {
					a, b := layout[s], ex.TargetQV
					if a > b {
						a, b = b, a
					}
					if oldSet[s] {
						restricted[[2]int{a, b}] = true
					}
				}
				layout = ex.OutLayout
			}
			for qe, j := range edgeIdx {
				wantOld := j < i
				if restricted[qe] != wantOld {
					t.Fatalf("%s pin %d: edge %v (pos %d) restricted=%v want %v",
						q.Name(), i, qe, j, restricted[qe], wantOld)
				}
			}
		}
	}
}
