package query

import (
	"math/rand"
	"testing"
)

func TestLabelsBreakSymmetry(t *testing.T) {
	tri := Triangle()
	if n := len(Automorphisms(tri)); n != 6 {
		t.Fatalf("unlabelled triangle |Aut| = %d, want 6", n)
	}
	// Two vertices share a label, one is distinct: only the shared pair is
	// symmetric.
	lt := tri.WithVertexLabels([]int{1, 1, 2})
	if n := len(Automorphisms(lt)); n != 2 {
		t.Fatalf("labelled triangle |Aut| = %d, want 2", n)
	}
	if orders := lt.Orders(); len(orders) != 1 || orders[0] != (Order{A: 0, B: 1}) {
		t.Fatalf("labelled triangle orders = %v, want [v1<v2]", orders)
	}
	// All distinct: no symmetry left at all.
	if n := len(Automorphisms(tri.WithVertexLabels([]int{1, 2, 3}))); n != 1 {
		t.Fatalf("fully distinguished triangle |Aut| = %d, want 1", n)
	}
}

func TestLabeledAccessors(t *testing.T) {
	q := NewLabeled("lab", [][2]int{{0, 1}, {1, 2}}, []int{4, AnyLabel, 4})
	if !q.Labeled() || q.Label(0) != 4 || q.Label(1) != AnyLabel {
		t.Fatalf("accessors wrong: labeled=%v labels=%v", q.Labeled(), q.VertexLabels())
	}
	// A nil or all-wildcard labelling is a plain unlabelled query.
	if NewLabeled("w", [][2]int{{0, 1}}, []int{AnyLabel, AnyLabel}).Labeled() {
		t.Error("all-wildcard query reports labelled")
	}
}

func TestLabeledSameNumbering(t *testing.T) {
	a := Triangle().WithVertexLabels([]int{1, 1, 2})
	b := Triangle().WithVertexLabels([]int{1, 1, 2})
	c := Triangle().WithVertexLabels([]int{1, 2, 1})
	if !a.SameNumbering(b) {
		t.Error("identical labelled queries not SameNumbering")
	}
	if a.SameNumbering(c) || a.SameNumbering(Triangle()) {
		t.Error("different label signatures report SameNumbering")
	}
}

// relabelLabeled permutes vertices and carries the label constraints along:
// an isomorphic labelled twin.
func relabelLabeled(t *testing.T, q *Query, rng *rand.Rand) *Query {
	t.Helper()
	perm := rng.Perm(q.NumVertices())
	edges := make([][2]int, 0, q.NumEdges())
	for _, e := range q.Edges() {
		edges = append(edges, [2]int{perm[e[0]], perm[e[1]]})
	}
	rng.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
	labels := make([]int, q.NumVertices())
	for v := range labels {
		labels[perm[v]] = q.Label(v)
	}
	return NewLabeled(q.Name()+"-relabelled", edges, labels)
}

func TestLabeledFingerprints(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	base := [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}
	unlab := New("sq", base)

	// Wildcard-only labelling keeps the exact unlabelled fingerprint, so
	// existing plan caches stay warm.
	if fp := unlab.WithVertexLabels([]int{AnyLabel, AnyLabel, AnyLabel, AnyLabel}).Fingerprint(); fp != unlab.Fingerprint() {
		t.Fatalf("wildcard labelling changed the fingerprint: %s vs %s", fp, unlab.Fingerprint())
	}

	// Distinct label signatures — including labelled vs unlabelled — must
	// fingerprint apart; no cross-label plan-cache hits.
	sigs := [][]int{
		{0, 0, 0, 0},
		{3, 3, 3, 3},
		{3, 0, 3, 0},
		{3, 3, 0, 0},
		{AnyLabel, 3, AnyLabel, 3},
	}
	fps := map[string]string{unlab.Fingerprint(): "unlabelled"}
	for _, sig := range sigs {
		q := unlab.WithVertexLabels(sig)
		fp := q.Fingerprint()
		if prev, dup := fps[fp]; dup {
			t.Errorf("label signatures %v and %s share fingerprint %s", sig, prev, fp)
		}
		fps[fp] = q.String()

		// Relabelled twins (labels carried through the permutation) agree.
		for trial := 0; trial < 8; trial++ {
			if got := relabelLabeled(t, q, rng).Fingerprint(); got != fp {
				t.Errorf("sig %v trial %d: fingerprint not relabelling-invariant:\n  %s\n  %s", sig, trial, fp, got)
			}
		}
	}

	// Labelled cliques exercise the no-fast-path branch.
	k4a := Q3().WithVertexLabels([]int{5, 1, 1, 5})
	k4b := relabelLabeled(t, k4a, rng)
	if k4a.Fingerprint() != k4b.Fingerprint() {
		t.Error("relabelled labelled cliques fingerprint apart")
	}
	if k4a.Fingerprint() == Q3().Fingerprint() {
		t.Error("labelled K4 shares the unlabelled K4 fingerprint")
	}
	// {1,5,5,1} is isomorphic to {5,1,1,5} on a clique: same fingerprint.
	if k4a.Fingerprint() != Q3().WithVertexLabels([]int{1, 5, 5, 1}).Fingerprint() {
		t.Error("isomorphic labelled cliques fingerprint apart")
	}
	if k4a.Fingerprint() == Q3().WithVertexLabels([]int{1, 1, 1, 5}).Fingerprint() {
		t.Error("K4 with label multiset {1,1,5,5} matches multiset {1,1,1,5}")
	}
}
