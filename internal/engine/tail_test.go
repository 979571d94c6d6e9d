package engine

import (
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
		s.lists = s.lists[:0]
		for _, x := range na {
			s.lists = append(s.lists, g.Neighbors(x))
		}
		if got := rungPairs(a, b, na, nb, &s); got != want {
			t.Fatalf("rung (%d, %d), P = %v: %d disjoint pairs, want %d", a, b, P, got, want)
		}
	}
	if reversed == 0 || mixed == 0 || empty == 0 || shared == 0 || skewed == 0 {
		t.Fatalf("sweep missed a case: %d reversed, %d mixed, %d empty, %d shared, %d skewed", reversed, mixed, empty, shared, skewed)
	}
}
