package query_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/gpm"
	"repro/internal/query"
)

// permutations returns every permutation of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// breaksOnce reports whether orders break q's symmetry exactly: under every
// rank assignment r of q's vertices — the relative order of the data
// vertices of one embedding — exactly one automorphic image r∘σ satisfies
// every order. It returns a rank assignment that fails.
func breaksOnce(q *query.Query, auts [][]int, ranks [][]int, orders []query.Order) ([]int, int) {
	for _, r := range ranks {
		n := 0
		for _, s := range auts {
			ok := true
			for _, o := range orders {
				if r[s[o.A]] > r[s[o.B]] {
					ok = false
					break
				}
			}
			if ok {
				n++
			}
		}
		if n != 1 {
			return r, n
		}
	}
	return nil, 1
}

// TestOrdersByOracle: for q1–q8, the triangle and every connected 4–5-vertex
// pattern, unlabelled and with the first vertex's label split from the
// rest, OrdersBy under every vertex priority (a seeded sample of 60 for
// six vertices) is an exact symmetry break, and the identity priority
// gives Orders.
func TestOrdersByOracle(t *testing.T) {
	patterns := append(query.Catalog(), query.Triangle())
	for k := 4; k <= 5; k++ {
		patterns = append(patterns, gpm.ConnectedPatterns(k)...)
	}
	rng := rand.New(rand.NewSource(41))
	var checked, moved int
	for _, base := range patterns {
		n := base.NumVertices()
		split := make([]int, n)
		split[0] = 1
		for _, q := range []*query.Query{base, base.WithVertexLabels(split)} {
			auts := query.Automorphisms(q)
			ranks := permutations(n)
			identity := make([]int, n)
			for i := range identity {
				identity[i] = i
			}
			if got := q.OrdersBy(identity); !slices.Equal(got, q.Orders()) {
				t.Errorf("%s: OrdersBy(identity) = %v, want Orders() = %v", q, got, q.Orders())
			}
			prios := permutations(n)
			if n > 5 {
				rng.Shuffle(len(prios), func(i, j int) { prios[i], prios[j] = prios[j], prios[i] })
				prios = prios[:60]
			}
			for _, prio := range prios {
				orders := q.OrdersBy(prio)
				if r, got := breaksOnce(q, auts, ranks, orders); r != nil {
					t.Fatalf("%s: OrdersBy(%v) = %v admits %d images of rank assignment %v, want 1", q, prio, orders, got, r)
				}
				checked++
				if !slices.Equal(orders, q.Orders()) {
					moved++
				}
			}
		}
	}
	if moved == 0 {
		t.Fatalf("no priority moved an order off Orders() in %d sets checked", checked)
	}
	t.Logf("%d order sets checked, %d differ from Orders()", checked, moved)
}

// TestOrdersByRejectsNonPermutation: a priority that repeats or misses a
// vertex would leave the chain without a base, so it panics.
func TestOrdersByRejectsNonPermutation(t *testing.T) {
	q := query.Q7()
	for _, prio := range [][]int{{0, 1, 2, 3, 4}, {0, 0, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 6}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("OrdersBy(%v) did not panic", prio)
				}
			}()
			q.OrdersBy(prio)
		}()
	}
}
