package query

import (
	"math/rand"
	"testing"
)

// relabel builds the same pattern under a random vertex permutation.
func relabel(t *testing.T, q *Query, rng *rand.Rand) *Query {
	t.Helper()
	perm := rng.Perm(q.NumVertices())
	edges := make([][2]int, 0, q.NumEdges())
	for _, e := range q.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	return New(q.Name()+"-relabelled", edges)
}

func TestFingerprintInvariantUnderRelabelling(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range Catalog() {
		fp := q.Fingerprint()
		for trial := 0; trial < 10; trial++ {
			r := relabel(t, q, rng)
			if got := r.Fingerprint(); got != fp {
				t.Errorf("%s trial %d: fingerprint changed under relabelling:\n  %s\n  %s",
					q.Name(), trial, fp, got)
			}
		}
	}
}

func TestFingerprintSeparatesStructures(t *testing.T) {
	qs := append([]*Query{Triangle()}, Catalog()...)
	seen := map[string]string{}
	for _, q := range qs {
		fp := q.Fingerprint()
		if prev, ok := seen[fp]; ok {
			t.Errorf("%s and %s share a fingerprint (%s)", prev, q.Name(), fp)
		}
		seen[fp] = q.Name()
	}
	// Same vertex/edge count, different structure: 4-cycle vs 3-star+edge
	// is covered by the catalog; check a subtle pair explicitly — the
	// 5-cycle vs the chordless house outline (4-cycle with pendant).
	c5 := New("c5", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	tail := New("tailed", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 4}})
	if c5.Fingerprint() == tail.Fingerprint() {
		t.Error("5-cycle and tailed square share a fingerprint")
	}
}

func TestFingerprintCliqueFastPath(t *testing.T) {
	k6a := completeQuery(t, 6, []int{0, 1, 2, 3, 4, 5})
	k6b := completeQuery(t, 6, []int{5, 3, 1, 0, 2, 4})
	if k6a.Fingerprint() != k6b.Fingerprint() {
		t.Error("relabelled cliques fingerprint apart")
	}
	if Triangle().Fingerprint() == k6a.Fingerprint() {
		t.Error("K3 and K6 share a fingerprint")
	}
}

func completeQuery(t *testing.T, n int, names []int) *Query {
	t.Helper()
	var edges [][2]int
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int{names[i], names[j]})
		}
	}
	return New("clique", edges)
}

// TestFingerprintRegularGraphs exercises the backtracking search where
// degree classes give no pruning at all.
func TestFingerprintRegularGraphs(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// Petersen graph: 10 vertices, 3-regular, highly symmetric.
	petersen := New("petersen", [][2]int{
		{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, // outer 5-cycle
		{5, 7}, {7, 9}, {9, 6}, {6, 8}, {8, 5}, // inner 5-star cycle
		{0, 5}, {1, 6}, {2, 7}, {3, 8}, {4, 9}, // spokes
	})
	fp := petersen.Fingerprint()
	for trial := 0; trial < 3; trial++ {
		if got := relabel(t, petersen, rng).Fingerprint(); got != fp {
			t.Fatalf("Petersen fingerprint unstable: %s vs %s", fp, got)
		}
	}
	// C10 vs two C5s is disconnected (unbuildable); C10 vs the Möbius–
	// Kantor-style crossed cycle must separate.
	c10 := New("c10", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}, {8, 9}, {9, 0}})
	if c10.Fingerprint() == petersen.Fingerprint() {
		t.Error("C10 and Petersen share a fingerprint")
	}
}
