package huge

import (
	"testing"

	"repro/internal/baseline"
)

func TestParsePatternTriangle(t *testing.T) {
	q, names, err := ParsePattern("tri", "(a)-(b), (b)-(c), (c)-(a)")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 3 || q.NumEdges() != 3 {
		t.Fatalf("parsed %d vertices %d edges", q.NumVertices(), q.NumEdges())
	}
	if names["a"] != 0 || names["b"] != 1 || names["c"] != 2 {
		t.Fatalf("name mapping %v", names)
	}
	// Counts must agree with the catalog triangle.
	g := Generate("GO", 1)
	if got, want := baseline.GroundTruthCount(g, q), baseline.GroundTruthCount(g, Triangle()); got != want {
		t.Fatalf("parsed triangle counts %d, catalog %d", got, want)
	}
}

func TestParsePatternBareNames(t *testing.T) {
	q, _, err := ParsePattern("sq", "a-b, b-c, c-d, d-a")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumVertices() != 4 || q.NumEdges() != 4 {
		t.Fatalf("square parse: %d/%d", q.NumVertices(), q.NumEdges())
	}
}

func TestParsePatternErrors(t *testing.T) {
	cases := []string{
		"",                 // no edges
		"a-a",              // self loop
		"a-b, a-b",         // duplicate
		"a-b, b-a",         // duplicate reversed
		"a-b-c",            // malformed edge
		"a-",               // empty name
		"a!-b",             // invalid name
		"a-b, c-d",         // disconnected
		"a-[x]-b",          // non-numeric edge label
		"a-[]-b",           // empty edge label
		"a-[70000]-b",      // edge label overflow (16-bit)
		"a-[1]-[2]-b",      // two infixes
		"a-[1-b",           // unclosed bracket
		"a-[1]-a",          // labelled self loop
		"a-[1]-b, a-[2]-b", // duplicate with different labels
	}
	for _, c := range cases {
		if _, _, err := ParsePattern("bad", c); err == nil {
			t.Errorf("pattern %q: expected error", c)
		}
	}
}

func TestParsePatternEdgeLabels(t *testing.T) {
	q, _, err := ParsePattern("tri", "(a:1)-[2]-(b:1), (b:1)-[2]-(c), (c)-(a:1)")
	if err != nil {
		t.Fatal(err)
	}
	if !q.EdgeLabeled() || !q.Labeled() {
		t.Fatalf("labels lost: edge=%v vertex=%v", q.EdgeLabeled(), q.Labeled())
	}
	if got := q.EdgeLabelBetween(0, 1); got != 2 {
		t.Errorf("edge (a,b) label %d, want 2", got)
	}
	if got := q.EdgeLabelBetween(0, 2); got != AnyLabel {
		t.Errorf("edge (a,c) label %d, want wildcard", got)
	}
	// Bare names and whitespace inside the bracket parse too.
	q2, _, err := ParsePattern("p", "a-[ 7 ]-b, b-c")
	if err != nil {
		t.Fatal(err)
	}
	if got := q2.EdgeLabelBetween(0, 1); got != 7 {
		t.Errorf("edge label %d, want 7", got)
	}
	// An edge-labelled parsed pattern counts like its API-built twin.
	g := WithEdgeLabels(Generate("GO", 1), func(u, v VertexID) LabelID { return LabelID(u+v) % 3 })
	pq, _, err := ParsePattern("tri2", "a-[1]-b, b-[1]-c, c-[1]-a")
	if err != nil {
		t.Fatal(err)
	}
	api := NewEdgeLabeledQuery("tri2", [][2]int{{0, 1}, {1, 2}, {2, 0}}, nil, []int{1, 1, 1})
	if got, want := baseline.GroundTruthCount(g, pq), baseline.GroundTruthCount(g, api); got != want {
		t.Fatalf("parsed edge-labelled triangle counts %d, API twin %d", got, want)
	}
}

func TestMatchPattern(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}, {0, 2}})
	sys := NewSystem(g, Options{})
	res, names, err := sys.MatchPattern("tri", "x-y, y-z, z-x")
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("count %d", res.Count)
	}
	if len(names) != 3 {
		t.Fatalf("names %v", names)
	}
}
