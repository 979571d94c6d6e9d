package query

import (
	"math/rand"
	"testing"
)

// TestFingerprintGolden pins the unlabelled (and vertex-labelled)
// canonical fingerprints to the exact byte values the pre-edge-label code
// produced (captured from the previous commit): a warm plan cache survives
// this refactor with zero invalidation.
func TestFingerprintGolden(t *testing.T) {
	golden := map[string]string{
		"q1-square":        "v4;000000003003;auto",
		"q2-diamond":       "v4;000001003003;auto",
		"q3-4clique":       "v4;K4;auto",
		"q4-house":         "v5;000001001003006;auto",
		"q5-tailed-square": "v5;000000003003001;auto",
		"q6-ladder":        "v6;00000100100100600a;auto",
		"q7-5path":         "v6;000000001003002004;auto",
		"q8-prism":         "v6;00000000100300700e;auto",
		"triangle":         "v3;K3;auto",
	}
	for _, q := range append(Catalog(), Triangle()) {
		if got := q.Fingerprint(); got != golden[q.Name()] {
			t.Errorf("%s: fingerprint %q, want pre-edge-label value %q", q.Name(), got, golden[q.Name()])
		}
	}
	lq := NewLabeled("lt", [][2]int{{0, 1}, {1, 2}, {0, 2}}, []int{3, 3, AnyLabel})
	if got, want := lq.Fingerprint(), "v3;000001003;l:-1,3,3;auto"; got != want {
		t.Errorf("labelled: fingerprint %q, want pre-edge-label value %q", got, want)
	}
}

// TestEdgeLabeledFingerprintDistinct: an edge-labelled query never shares
// a fingerprint (and hence a plan-cache key) with its unlabelled twin or
// with a differently-edge-labelled sibling, while an all-wildcard edge
// labelling degrades to the plain query.
func TestEdgeLabeledFingerprintDistinct(t *testing.T) {
	for _, q := range append(Catalog(), Triangle()) {
		plain := q.Fingerprint()
		wild := make([]int, q.NumEdges())
		for i := range wild {
			wild[i] = AnyLabel
		}
		if got := q.WithEdgeLabels(wild).Fingerprint(); got != plain {
			t.Errorf("%s: all-wildcard edge labels changed fingerprint %q -> %q", q.Name(), plain, got)
		}
		one := make([]int, q.NumEdges())
		for i := range one {
			one[i] = 1
		}
		lq := q.WithEdgeLabels(one)
		if lq.Fingerprint() == plain {
			t.Errorf("%s: edge-labelled twin shares the unlabelled fingerprint", q.Name())
		}
		two := append([]int(nil), one...)
		two[0] = 2
		if f := q.WithEdgeLabels(two).Fingerprint(); f == lq.Fingerprint() {
			t.Errorf("%s: distinct edge-label signatures share fingerprint %q", q.Name(), f)
		}
	}
}

// TestEdgeLabeledFingerprintInvariant: relabelling the vertices of an
// edge-labelled pattern (carrying the edge labels along) must not change
// its canonical fingerprint.
func TestEdgeLabeledFingerprintInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, q := range append(Catalog(), Triangle()) {
		elabels := make([]int, q.NumEdges())
		for i := range elabels {
			elabels[i] = rng.Intn(3) - 1 // AnyLabel, 0, or 1
		}
		lq := q.WithEdgeLabels(elabels)
		for trial := 0; trial < 5; trial++ {
			perm := rng.Perm(q.NumVertices())
			edges := make([][2]int, q.NumEdges())
			pel := make([]int, q.NumEdges())
			for i, e := range q.Edges() {
				edges[i] = [2]int{perm[e[0]], perm[e[1]]}
				pel[i] = elabels[i]
			}
			pq := NewEdgeLabeled("permuted", edges, nil, pel)
			if pq.Fingerprint() != lq.Fingerprint() {
				t.Fatalf("%s trial %d: permuted fingerprint %q != %q", q.Name(), trial, pq.Fingerprint(), lq.Fingerprint())
			}
		}
	}
}

// TestEdgeLabelAutomorphisms: edge-distinguished pairs are never
// symmetric. A path a-b-c has the swap automorphism; labelling its two
// edges differently must kill it (and the derived orders), while equal
// labels keep it.
func TestEdgeLabelAutomorphisms(t *testing.T) {
	path := New("path", [][2]int{{0, 1}, {1, 2}})
	if got := len(Automorphisms(path)); got != 2 {
		t.Fatalf("plain path: %d automorphisms, want 2", got)
	}
	same := NewEdgeLabeled("path-same", [][2]int{{0, 1}, {1, 2}}, nil, []int{4, 4})
	if got := len(Automorphisms(same)); got != 2 {
		t.Errorf("uniformly-labelled path: %d automorphisms, want 2", got)
	}
	diff := NewEdgeLabeled("path-diff", [][2]int{{0, 1}, {1, 2}}, nil, []int{4, 5})
	if got := len(Automorphisms(diff)); got != 1 {
		t.Errorf("edge-distinguished path: %d automorphisms, want 1", got)
	}
	if got := len(diff.Orders()); got != 0 {
		t.Errorf("edge-distinguished path: %d symmetry-breaking orders, want 0", got)
	}
	// Triangle with one distinguished edge keeps exactly the swap of its
	// two endpoints (|Aut| = 2 of the full 6).
	tri := NewEdgeLabeled("tri", [][2]int{{0, 1}, {1, 2}, {0, 2}}, nil, []int{7, AnyLabel, AnyLabel})
	if got := len(Automorphisms(tri)); got != 2 {
		t.Errorf("one-edge-distinguished triangle: %d automorphisms, want 2", got)
	}
}

// TestEdgeLabelAccessors covers the canonicalisation of the elabels slice
// (parallel to the input edge order, re-sorted with the edges) and the
// copy semantics of WithVertexLabels / WithEdgeLabels / Delta.
func TestEdgeLabelAccessors(t *testing.T) {
	// Edges given out of canonical order: labels must follow the sort.
	q := NewEdgeLabeled("q", [][2]int{{1, 2}, {0, 1}}, nil, []int{5, 9})
	if got := q.EdgeLabelBetween(1, 2); got != 5 {
		t.Errorf("EdgeLabelBetween(1,2) = %d, want 5", got)
	}
	if got := q.EdgeLabelBetween(1, 0); got != 9 {
		t.Errorf("EdgeLabelBetween(1,0) = %d, want 9", got)
	}
	if got := q.EdgeLabelAt(0); got != 9 { // canonical order puts (0,1) first
		t.Errorf("EdgeLabelAt(0) = %d, want 9", got)
	}
	if !q.EdgeLabeled() || q.Labeled() {
		t.Errorf("EdgeLabeled/Labeled flags wrong: %v %v", q.EdgeLabeled(), q.Labeled())
	}
	vq := q.WithVertexLabels([]int{1, AnyLabel, 1})
	if !vq.EdgeLabeled() || vq.EdgeLabelBetween(0, 1) != 9 {
		t.Errorf("WithVertexLabels dropped edge labels")
	}
	dq := vq.Delta()
	if !dq.EdgeLabeled() || dq.EdgeLabelBetween(1, 2) != 5 || !dq.IsDelta() {
		t.Errorf("Delta view dropped edge labels")
	}
	if vq.SameNumbering(q) {
		t.Errorf("SameNumbering must distinguish vertex-labelled twin")
	}
	uq := New("q", [][2]int{{0, 1}, {1, 2}})
	if uq.SameNumbering(q) {
		t.Errorf("SameNumbering must distinguish edge-labelled twin")
	}
}
