package query

import (
	"math/bits"
	"reflect"
	"sync"
	"testing"
)

func TestSquareOrdersMatchPaper(t *testing.T) {
	q := Q1()
	// The paper lists q1: v1<v2, v1<v3, v1<v4, v2<v4 (1-indexed).
	want := []Order{{0, 1}, {0, 2}, {0, 3}, {1, 3}}
	if !reflect.DeepEqual(q.Orders(), want) {
		t.Fatalf("q1 orders = %v, want %v", q.Orders(), want)
	}
}

func TestDiamondOrdersMatchPaper(t *testing.T) {
	q := Q2()
	// The paper lists q2: v1<v3, v2<v4. Our diamond has the chord on (1,3),
	// so degree-2 vertices {0,2} and degree-3 vertices {1,3} are each orbits.
	want := []Order{{0, 2}, {1, 3}}
	if !reflect.DeepEqual(q.Orders(), want) {
		t.Fatalf("q2 orders = %v, want %v", q.Orders(), want)
	}
}

func TestFivePathOrdersMatchPaper(t *testing.T) {
	q := Q7()
	want := []Order{{0, 5}} // v1 < v6
	if !reflect.DeepEqual(q.Orders(), want) {
		t.Fatalf("q7 orders = %v, want %v", q.Orders(), want)
	}
}

func TestAutomorphismCounts(t *testing.T) {
	cases := []struct {
		q    *Query
		want int
	}{
		{Triangle(), 6},
		{Q1(), 8},  // dihedral D4
		{Q2(), 4},  // swap each degree class
		{Q3(), 24}, // S4
		{Q4(), 2},  // house reflection
		{Q5(), 2},
		{Q6(), 4}, // ladder: rail swap x reversal
		{Q7(), 2}, // path reversal
		{Q8(), 12},
	}
	for _, c := range cases {
		if got := len(Automorphisms(c.q)); got != c.want {
			t.Errorf("%s: |Aut| = %d, want %d", c.q.Name(), got, c.want)
		}
	}
}

func TestAutomorphismsAreAutomorphisms(t *testing.T) {
	for _, q := range Catalog() {
		for _, p := range Automorphisms(q) {
			for _, e := range q.Edges() {
				if !q.HasEdge(p[e[0]], p[e[1]]) {
					t.Fatalf("%s: permutation %v does not preserve edge %v", q.Name(), p, e)
				}
			}
		}
	}
}

// countOrderedPerms counts permutations of 0..n-1 (candidate automorphism
// images) that satisfy the order constraints — for a correct symmetry
// breaking, exactly one automorphism satisfies all constraints.
func TestSymmetryBreakingSelectsUniqueRepresentative(t *testing.T) {
	for _, q := range Catalog() {
		auts := Automorphisms(q)
		satisfying := 0
		for _, p := range auts {
			ok := true
			for _, o := range q.Orders() {
				if p[o.A] >= p[o.B] {
					ok = false
					break
				}
			}
			if ok {
				satisfying++
			}
		}
		if satisfying != 1 {
			t.Errorf("%s: %d automorphisms satisfy the orders, want exactly 1", q.Name(), satisfying)
		}
	}
}

func TestNewPanics(t *testing.T) {
	cases := []struct {
		name  string
		edges [][2]int
	}{
		{"self-loop", [][2]int{{0, 0}}},
		{"duplicate", [][2]int{{0, 1}, {1, 0}}},
		{"disconnected", [][2]int{{0, 1}, {2, 3}}},
		{"empty", nil},
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			New(c.name, c.edges)
		}()
	}
}

func TestQueryAccessors(t *testing.T) {
	q := Triangle()
	if q.NumVertices() != 3 || q.NumEdges() != 3 {
		t.Fatalf("triangle dims: v=%d e=%d", q.NumVertices(), q.NumEdges())
	}
	if !q.IsClique() {
		t.Fatal("triangle should be a clique")
	}
	if Q1().IsClique() {
		t.Fatal("square is not a clique")
	}
	if !q.HasEdge(0, 2) || q.HasEdge(0, 3) {
		t.Fatal("HasEdge wrong")
	}
	if q.Degree(0) != 2 {
		t.Fatalf("Degree(0) = %d", q.Degree(0))
	}
	if got := q.String(); got == "" {
		t.Fatal("empty String()")
	}
}

func TestVerticesOfEdgeMask(t *testing.T) {
	q := Q1() // edges sorted: (0,1),(0,3),(1,2),(2,3)
	if got := q.VerticesOfEdgeMask(0b0001); got != 0b0011 {
		t.Fatalf("mask of first edge = %b", got)
	}
	if got := q.VerticesOfEdgeMask(q.FullEdgeMask()); got != q.FullVertexMask() {
		t.Fatalf("full edge mask covers %b", got)
	}
}

func TestEdgeMaskConnected(t *testing.T) {
	q := Q1()                         // edges (0,1),(0,3),(1,2),(2,3)
	if !q.EdgeMaskConnected(0b0011) { // (0,1)+(0,3) share vertex 0
		t.Fatal("edges sharing a vertex should be connected")
	}
	// (0,1) and (2,3) are disjoint.
	var e01, e23 uint32
	for i, e := range q.Edges() {
		if e == [2]int{0, 1} {
			e01 = 1 << i
		}
		if e == [2]int{2, 3} {
			e23 = 1 << i
		}
	}
	if q.EdgeMaskConnected(e01 | e23) {
		t.Fatal("disjoint edges reported connected")
	}
	if q.EdgeMaskConnected(0) {
		t.Fatal("empty mask reported connected")
	}
}

func TestStarRoot(t *testing.T) {
	q := New("star-test", [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}})
	// Mask of the three edges incident to 0 forms a star rooted at 0.
	var starMask uint32
	for i, e := range q.Edges() {
		if e[0] == 0 {
			starMask |= 1 << i
		}
	}
	root, leaves, ok := q.StarRoot(starMask)
	if !ok || root != 0 || !reflect.DeepEqual(leaves, []int{1, 2, 3}) {
		t.Fatalf("StarRoot = %d %v %v", root, leaves, ok)
	}
	// Full mask includes (1,2): not a star.
	if _, _, ok := q.StarRoot(q.FullEdgeMask()); ok {
		t.Fatal("full mask misclassified as star")
	}
	// Single edge is a 1-star.
	if root, leaves, ok := q.StarRoot(1); !ok || bits.OnesCount32(1) != 1 || len(leaves) != 1 || root == leaves[0] {
		t.Fatalf("single edge star: %d %v %v", root, leaves, ok)
	}
	if _, _, ok := q.StarRoot(0); ok {
		t.Fatal("empty mask is not a star")
	}
}

func TestCatalogByName(t *testing.T) {
	for i, name := range []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"} {
		q := ByName(name)
		if q == nil {
			t.Fatalf("ByName(%s) = nil", name)
		}
		if q.Name() != Catalog()[i].Name() {
			t.Fatalf("ByName(%s) = %s", name, q.Name())
		}
	}
	if ByName("triangle") == nil || ByName("nope") != nil {
		t.Fatal("ByName triangle/nope wrong")
	}
}

// TestQueryValueConcurrentReads: a Query is an immutable value, so many
// goroutines may share a freshly built one — fingerprint never computed —
// and read it at once. Every reader must see the same fingerprint, and
// under -race the memoisation must publish cleanly.
func TestQueryValueConcurrentReads(t *testing.T) {
	q := NewLabeled("lsq", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int{1, AnyLabel, 1, AnyLabel})
	twin := NewLabeled("lsq-twin", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}, []int{1, AnyLabel, 1, AnyLabel})
	const n = 16
	fps := make([][2]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fps[i] = [2]string{q.Fingerprint(), q.Delta().Fingerprint()}
			if len(q.Orders()) == 0 {
				t.Error("labelled square lost its symmetry-breaking orders")
			}
			if !q.SameNumbering(twin) {
				t.Error("identically numbered twin reported a different numbering")
			}
			if m, ok := q.IsomorphismTo(twin); !ok || len(m) != q.NumVertices() {
				t.Errorf("IsomorphismTo(twin) = %v, %v", m, ok)
			}
		}(i)
	}
	wg.Wait()
	for i, fp := range fps {
		if fp[0] != fps[0][0] || fp[1] != fps[0][0] {
			t.Fatalf("reader %d saw fingerprints %q / %q, reader 0 saw %q", i, fp[0], fp[1], fps[0][0])
		}
	}
}
