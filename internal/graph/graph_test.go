package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestBuilderBasic(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	if g.NumVertices() != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices())
	}
	if g.NumEdges() != 4 {
		t.Fatalf("NumEdges = %d, want 4", g.NumEdges())
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d, want 3", g.MaxDegree())
	}
	want := []VertexID{0, 1, 3}
	if got := g.Neighbors(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("Neighbors(2) = %v, want %v", got, want)
	}
}

func TestBuilderDedupAndSelfLoop(t *testing.T) {
	var b Builder
	b.AddEdge(0, 1)
	b.AddEdge(1, 0)
	b.AddEdge(0, 1)
	b.AddEdge(1, 1) // self-loop ignored
	g := b.Build()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 (dupes and self-loops dropped)", g.NumEdges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestBuilderEmpty(t *testing.T) {
	var b Builder
	g := b.Build()
	if g.NumVertices() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty graph: got v=%d e=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestSetNumVertices(t *testing.T) {
	var b Builder
	b.SetNumVertices(10)
	b.AddEdge(0, 1)
	g := b.Build()
	if g.NumVertices() != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices())
	}
	if g.Degree(9) != 0 {
		t.Fatalf("isolated vertex degree = %d", g.Degree(9))
	}
}

func TestSetNumVerticesPanicsOnOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range edge")
		}
	}()
	var b Builder
	b.SetNumVertices(2)
	b.AddEdge(0, 5)
	b.Build()
}

func TestHasEdge(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}})
	cases := []struct {
		u, v VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {1, 2, true}, {0, 2, false}, {2, 0, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v, want %v", c.u, c.v, got, c.want)
		}
	}
}

func TestReadWriteEdgeList(t *testing.T) {
	in := "# comment\n0 1\n1 2\n\n% another comment\n2 0\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != g.NumEdges() || g2.NumVertices() != g.NumVertices() {
		t.Fatalf("round trip mismatch: %d/%d vs %d/%d",
			g2.NumVertices(), g2.NumEdges(), g.NumVertices(), g.NumEdges())
	}
}

func TestContainsSorted(t *testing.T) {
	s := []VertexID{1, 3, 5, 9, 12}
	for _, x := range s {
		if !ContainsSorted(s, x) {
			t.Errorf("ContainsSorted(%v, %d) = false", s, x)
		}
	}
	for _, x := range []VertexID{0, 2, 4, 13} {
		if ContainsSorted(s, x) {
			t.Errorf("ContainsSorted(%v, %d) = true", s, x)
		}
	}
	if ContainsSorted(nil, 1) {
		t.Error("ContainsSorted(nil, 1) = true")
	}
}

func intersectNaive(a, b []VertexID) []VertexID {
	set := map[VertexID]bool{}
	for _, x := range a {
		set[x] = true
	}
	var out []VertexID
	for _, x := range b {
		if set[x] {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedUnique(xs []VertexID) []VertexID {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	out := xs[:0]
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}

func TestIntersectSortedProperty(t *testing.T) {
	f := func(av, bv []uint16) bool {
		a := make([]VertexID, len(av))
		for i, x := range av {
			a[i] = VertexID(x)
		}
		b := make([]VertexID, len(bv))
		for i, x := range bv {
			b[i] = VertexID(x)
		}
		a, b = sortedUnique(a), sortedUnique(b)
		got := IntersectSorted(nil, a, b)
		want := intersectNaive(a, b)
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersectSortedGalloping(t *testing.T) {
	// Big list with a small list forces the galloping path (>= 32x skew).
	big := make([]VertexID, 10000)
	for i := range big {
		big[i] = VertexID(i * 3)
	}
	small := []VertexID{0, 3, 7, 2999 * 3, 29999}
	got := IntersectSorted(nil, small, big)
	want := []VertexID{0, 3, 2999 * 3}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("galloping intersect = %v, want %v", got, want)
	}
	// Symmetric argument order must agree.
	got2 := IntersectSorted(nil, big, small)
	if !reflect.DeepEqual(got2, want) {
		t.Fatalf("galloping intersect (swapped) = %v, want %v", got2, want)
	}
}

func TestIntersectMany(t *testing.T) {
	lists := [][]VertexID{
		{1, 2, 3, 4, 5, 6, 7, 8},
		{2, 4, 6, 8, 10},
		{4, 8, 12},
	}
	var scratch IntersectScratch
	got := IntersectMany(lists, &scratch)
	want := []VertexID{4, 8}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("IntersectMany = %v, want %v", got, want)
	}
	// Single list passes through.
	one := IntersectMany(lists[:1], &scratch)
	if len(one) != 8 {
		t.Fatalf("IntersectMany single list = %v", one)
	}
	if IntersectMany(nil, &scratch) != nil {
		t.Fatal("IntersectMany(nil) != nil")
	}
}

func TestIntersectManyProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var scratch IntersectScratch
	for iter := 0; iter < 100; iter++ {
		k := 2 + rng.Intn(4)
		lists := make([][]VertexID, k)
		for i := range lists {
			n := rng.Intn(50)
			xs := make([]VertexID, n)
			for j := range xs {
				xs[j] = VertexID(rng.Intn(60))
			}
			lists[i] = sortedUnique(xs)
		}
		want := lists[0]
		for _, l := range lists[1:] {
			want = intersectNaive(want, l)
		}
		got := IntersectMany(lists, &scratch)
		if len(got) != len(want) {
			t.Fatalf("iter %d: len %d vs %d (%v vs %v)", iter, len(got), len(want), got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("iter %d: %v vs %v", iter, got, want)
			}
		}
	}
}

func TestPartitionerSingleMachine(t *testing.T) {
	p := NewPartitioner(1)
	for v := VertexID(0); v < 100; v++ {
		if p.Owner(v) != 0 {
			t.Fatalf("Owner(%d) = %d with k=1", v, p.Owner(v))
		}
	}
}

func TestPartitionerBalance(t *testing.T) {
	const k, n = 8, 100000
	p := NewPartitioner(k)
	counts := make([]int, k)
	for v := 0; v < n; v++ {
		counts[p.Owner(VertexID(v))]++
	}
	for i, c := range counts {
		if c < n/k/2 || c > n/k*2 {
			t.Fatalf("machine %d owns %d of %d vertices: unbalanced %v", i, c, n, counts)
		}
	}
}

func TestSizeBytes(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}})
	want := uint64(4*8) + uint64(4*4) // offsets: n+1=4 uint64; adj: 2*2 entries
	if g.SizeBytes() != want {
		t.Fatalf("SizeBytes = %d, want %d", g.SizeBytes(), want)
	}
}
