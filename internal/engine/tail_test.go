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
