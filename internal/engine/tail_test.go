package engine

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
)

// TestTailPairCount checks the closed forms of a two-set tail against
// brute force on random sorted sets: overlapping, equal and empty sets,
// prefix images inside them, without an order (as lists and as hub
// operands) and with either.
func TestTailPairCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	subset := func(universe int) []graph.VertexID {
		var s []graph.VertexID
		for v := 0; v < universe; v++ {
			if rng.Intn(3) == 0 {
				s = append(s, graph.VertexID(v))
			}
		}
		return s
	}
	without := func(s, row []graph.VertexID) []graph.VertexID {
		return slices.DeleteFunc(slices.Clone(s), func(v graph.VertexID) bool { return slices.Contains(row, v) })
	}
	// Rows are matches: distinct vertices, in no particular order.
	shuffled := func(s []graph.VertexID) []graph.VertexID {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
		return s
	}
	var equal, empty, imaged int
	var isect graph.IntersectScratch
	for i := 0; i < 3000; i++ {
		universe := 1 + rng.Intn(14)
		a, b, row := subset(universe), subset(universe), subset(universe)[:0:0]
		for _, v := range subset(universe) {
			if len(row) < 6 {
				row = append(row, v)
			}
		}
		if i%4 == 0 {
			b = slices.Clone(a)
		}
		if slices.Equal(a, b) {
			equal++
		}
		if len(a) == 0 || len(b) == 0 {
			empty++
		}
		if len(without(a, row)) < len(a) || len(without(b, row)) < len(b) {
			imaged++
		}
		for _, order := range []pairOrder{unordered, firstLess, secondLess} {
			var want uint64
			for _, x := range a {
				for _, y := range b {
					switch {
					case x == y, slices.Contains(row, x), slices.Contains(row, y):
					case order == firstLess && x > y, order == secondLess && y > x:
					default:
						want++
					}
				}
			}
			row := shuffled(row)
			if order != unordered {
				if got := orderedPairs(a, b, row, order); got != want {
					t.Fatalf("orderedPairs(%v, %v, order %d) minus %v = %d, want %d", a, b, order, row, got, want)
				}
				continue
			}
			// Plain lists, and the same sets as hub operands, whose
			// counts and membership tests go through the bitsets.
			for _, hub := range []bool{false, true} {
				sets := [2]graph.NbrList{{List: a}, {List: b}}
				if hub {
					sets[0].Bits, sets[1].Bits = graph.NewBitsetFrom(universe, a), graph.NewBitsetFrom(universe, b)
				}
				if got := unorderedPairs(&sets, &[2]members{}, row, &isect); got != want {
					t.Fatalf("unorderedPairs(%v, %v, hub %v) minus %v = %d, want %d", a, b, hub, row, got, want)
				}
			}
		}
	}
	if equal == 0 || empty == 0 || imaged == 0 {
		t.Fatalf("sweep missed a case: %d equal, %d empty, %d with prefix images", equal, empty, imaged)
	}
}

// TestSeparatorRungPairs checks a rung's closed form (rungPairs) against
// brute force on random rungs (a, b) over a small universe: P is built by
// definition and its vertex-disjoint ordered pairs are enumerated. The
// sweep must cover reversed pairs (the R term), a vertex that is an x in
// one pair and a y in another (the Σc·d term), an empty P, a rung whose
// sides share every vertex, and lists skewed enough for binary search.
func TestSeparatorRungPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	var reversed, mixed, empty, shared, skewed int
	var s rungScratch
	var lists [][]graph.VertexID
	for i := 0; i < 3000; i++ {
		n := 2 + rng.Intn(10)
		if i%10 == 0 {
			n = 40 + rng.Intn(40)
		}
		ids := rng.Perm(n) // vertex v is ids[v]: a = ids[0], b = ids[1]
		a, b := graph.VertexID(ids[0]), graph.VertexID(ids[1])
		allShared := i%7 == 0
		edges := [][2]graph.VertexID{{a, b}}
		for v := 2; v < n; v++ {
			inA, inB := rng.Intn(2) == 0, rng.Intn(2) == 0
			if allShared {
				inA, inB = true, true
			}
			if i%10 == 0 && v > 4 {
				inA = false // a short list against a long N(b)
			}
			if inA {
				edges = append(edges, [2]graph.VertexID{a, graph.VertexID(ids[v])})
			}
			if inB {
				edges = append(edges, [2]graph.VertexID{b, graph.VertexID(ids[v])})
			}
			for w := v + 1; w < n; w++ {
				if rng.Intn(3) == 0 && i%11 != 0 {
					edges = append(edges, [2]graph.VertexID{graph.VertexID(ids[v]), graph.VertexID(ids[w])})
				}
			}
		}
		g := graph.FromEdges(edges)
		na, nb := g.Neighbors(a), g.Neighbors(b)
		var P [][2]graph.VertexID
		for _, x := range na {
			for _, y := range nb {
				if x != b && y != a && g.HasEdge(x, y) {
					P = append(P, [2]graph.VertexID{x, y})
				}
			}
		}
		var want uint64
		asX, asY := map[graph.VertexID]bool{}, map[graph.VertexID]bool{}
		for _, p := range P {
			asX[p[0]], asY[p[1]] = true, true
			for _, q := range P {
				if p[0] != q[0] && p[0] != q[1] && p[1] != q[0] && p[1] != q[1] {
					want++
				}
				if p[0] == q[1] && p[1] == q[0] {
					reversed++
				}
			}
		}
		for z := range asX {
			if asY[z] {
				mixed++
			}
		}
		if len(P) == 0 {
			empty++
		}
		if allShared && len(na) > 1 {
			shared++
		}
		if len(na)*16 < len(nb) {
			skewed++
		}
		lists = lists[:0]
		for _, x := range na {
			lists = append(lists, g.Neighbors(x))
		}
		if got := rungPairs(a, b, na, nb, lists, &s); got != want {
			t.Fatalf("rung (%d, %d), P = %v: %d disjoint pairs, want %d", a, b, P, got, want)
		}
	}
	if reversed == 0 || mixed == 0 || empty == 0 || shared == 0 || skewed == 0 {
		t.Fatalf("sweep missed a case: %d reversed, %d mixed, %d empty, %d shared, %d skewed", reversed, mixed, empty, shared, skewed)
	}
}

// TestSeparatorPathCount checks a middle edge's closed form
// (extendScratch.countPath) against brute force, which enumerates the
// pairs of 2-paths a–x–x′ and b–y–y′ that share no vertex. Every ordered
// edge (a, b) of each graph is counted, all of a's edges from one tally,
// and clearWedges must leave the counter clean. The named graphs hold a triangle
// through an edge, a 4-cycle through one (x = y′ with x′ = y), degree-1
// ends, ends of more than twice the other's degree and ends whose only
// neighbour is the other (an empty N(a)∖b); the seeded random graphs run
// from sparse to dense.
func TestSeparatorPathCount(t *testing.T) {
	brute := func(g *graph.Graph, a, b graph.VertexID) uint64 {
		var n uint64
		for _, x := range g.Neighbors(a) {
			for _, x2 := range g.Neighbors(x) {
				for _, y := range g.Neighbors(b) {
					for _, y2 := range g.Neighbors(y) {
						if x != b && y != a && !slices.Contains([]graph.VertexID{a, b, y, y2}, x2) &&
							!slices.Contains([]graph.VertexID{a, b, x}, y2) && x != y {
							n++
						}
					}
				}
			}
		}
		return n
	}
	lists := func(g *graph.Graph, v graph.VertexID) ([]graph.VertexID, [][]graph.VertexID) {
		var out [][]graph.VertexID
		for _, x := range g.Neighbors(v) {
			out = append(out, g.Neighbors(x))
		}
		return g.Neighbors(v), out
	}
	check := func(name string, g *graph.Graph) (images uint64) {
		t.Helper()
		var sc extendScratch
		sc.growWedges(g.NumVertices())
		for a := graph.VertexID(0); int(a) < g.NumVertices(); a++ {
			na, la := lists(g, a)
			sc.tallyPath(a, na, la)
			for _, b := range na {
				nb, lb := lists(g, b)
				got, want := sc.countPath(g, b, nb, lb), brute(g, a, b)
				if got != want {
					t.Fatalf("%s: edge (%d, %d): %d images, want %d", name, a, b, got, want)
				}
				images += want
			}
			sc.clearWedges()
			if i := slices.IndexFunc(sc.wedges, func(w uint32) bool { return w != 0 }); i >= 0 {
				t.Fatalf("%s: tally of %d left wedges[%d] = %#x", name, a, i, sc.wedges[i])
			}
		}
		return images
	}
	named := []struct {
		name  string
		edges [][2]graph.VertexID
	}{
		// 0–1 with 2 adjacent to both, each with a pendant path.
		{"triangle", [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {1, 4}, {2, 5}, {3, 6}, {4, 7}, {5, 8}}},
		// 0–2–3–1 closes a 4-cycle over 0–1: x = 2, y = 3 gives x = y′, x′ = y.
		{"4-cycle", [][2]graph.VertexID{{0, 1}, {0, 2}, {2, 3}, {3, 1}, {2, 4}, {3, 5}, {0, 6}, {1, 7}}},
		// Leaves 2..5 hang off 0 and 1; 6 has 1 as its only neighbour.
		{"degree-1 ends", [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {1, 4}, {1, 5}, {2, 7}, {4, 8}, {1, 6}}},
		// The hub 0 has degree 9 against 1's 3.
		{"skewed", [][2]graph.VertexID{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}, {0, 7}, {0, 8}, {0, 9}, {1, 10}, {1, 11}, {2, 10}, {3, 12}, {10, 13}, {11, 12}}},
		// 0 and 1 know only each other and one more vertex each.
		{"empty side", [][2]graph.VertexID{{0, 1}, {2, 3}, {1, 2}, {3, 4}}},
	}
	for _, c := range named {
		if check(c.name, graph.FromEdges(c.edges)) == 0 && c.name != "empty side" {
			t.Errorf("%s: no image, the case is not exercised", c.name)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		n := 6 + rng.Intn(24)
		p := 0.05 + 0.4*rng.Float64()
		var edges [][2]graph.VertexID
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					edges = append(edges, [2]graph.VertexID{graph.VertexID(u), graph.VertexID(v)})
				}
			}
		}
		if len(edges) > 0 {
			check(fmt.Sprintf("random %d (n=%d, p=%.2f)", i, n, p), graph.FromEdges(edges))
		}
	}
}
