package gen

import (
	"testing"

	"repro/internal/graph"
)

// avgDegree is the average vertex degree d_G.
func avgDegree(g *graph.Graph) float64 { return float64(2*g.NumEdges()) / float64(g.NumVertices()) }

func TestPowerLawDeterministic(t *testing.T) {
	g1 := PowerLaw(500, 4, 1)
	g2 := PowerLaw(500, 4, 1)
	if g1.NumEdges() != g2.NumEdges() || g1.NumVertices() != g2.NumVertices() {
		t.Fatal("same seed produced different graphs")
	}
	g3 := PowerLaw(500, 4, 2)
	if g1.NumEdges() == g3.NumEdges() && g1.MaxDegree() == g3.MaxDegree() {
		t.Log("different seeds produced identical summary stats (possible but unlikely)")
	}
}

func TestPowerLawSkew(t *testing.T) {
	g := PowerLaw(5000, 5, 42)
	if g.NumVertices() != 5000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	// A preferential-attachment graph must have hubs far above the average.
	if float64(g.MaxDegree()) < 4*avgDegree(g) {
		t.Fatalf("no skew: max degree %d vs avg %.1f", g.MaxDegree(), avgDegree(g))
	}
}

func TestWebHubs(t *testing.T) {
	g := Web(5000, 6, 0.6, 42)
	if g.NumVertices() != 5000 {
		t.Fatalf("NumVertices = %d", g.NumVertices())
	}
	if float64(g.MaxDegree()) < 8*avgDegree(g) {
		t.Fatalf("web graph lacks hubs: max %d avg %.1f", g.MaxDegree(), avgDegree(g))
	}
}

func TestRoadLowSkew(t *testing.T) {
	g := Road(4900, 0.01, 42)
	if g.MaxDegree() > 30 {
		t.Fatalf("road network max degree %d too high", g.MaxDegree())
	}
	if avgDegree(g) < 2 || avgDegree(g) > 8 {
		t.Fatalf("road network avg degree %.1f out of range", avgDegree(g))
	}
}

func TestCatalogAllBuild(t *testing.T) {
	for _, d := range Catalog(1) {
		g := d.Make()
		if g.NumVertices() == 0 || g.NumEdges() == 0 {
			t.Errorf("%s: empty graph", d.Name)
		}
		// Adjacency must be sorted and self-loop free for the intersection kernels.
		for v := 0; v < min(g.NumVertices(), 500); v++ {
			nb := g.Neighbors(graph.VertexID(v))
			for i := 1; i < len(nb); i++ {
				if nb[i] <= nb[i-1] {
					t.Fatalf("%s: unsorted adjacency at %d", d.Name, v)
				}
			}
			for _, u := range nb {
				if u == graph.VertexID(v) {
					t.Fatalf("%s: self-loop at %d", d.Name, v)
				}
			}
		}
	}
}

func TestByName(t *testing.T) {
	if g := ByName("LJ", 1); g == nil || g.NumVertices() == 0 {
		t.Fatal("ByName LJ failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown dataset")
		}
	}()
	ByName("nope", 1)
}
