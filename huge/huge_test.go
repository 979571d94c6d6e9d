package huge

import (
	"context"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/baseline"
)

func TestSystemRunMatchesGroundTruth(t *testing.T) {
	g := Generate("GO", 1)
	sys := NewSystem(g, Options{Machines: 3, Workers: 2})
	for _, q := range []*Query{Triangle(), Q1(), Q2()} {
		want := baseline.GroundTruthCount(g, q)
		res, err := sys.Exec(context.Background(), q, CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if res.Count != want {
			t.Errorf("%s: count %d, want %d", q.Name(), res.Count, want)
		}
		if res.Elapsed <= 0 {
			t.Errorf("%s: elapsed not recorded", q.Name())
		}
	}
}

// TestSystemPlanFor: PlanFor builds the two families the System runs,
// and no other — the paper's baseline families are the experiment rig's.
func TestSystemPlanFor(t *testing.T) {
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}})
	sys := NewSystem(g, Options{})
	q := Q1()
	want := baseline.GroundTruthCount(g, q)
	for _, name := range []string{"optimal", "wco"} {
		p := sys.PlanFor(q, name)
		res, err := sys.Exec(context.Background(), q, WithPlan(p), CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Count != want {
			t.Errorf("%s: count %d, want %d", name, res.Count, want)
		}
	}
	for _, name := range []string{"seed", "rads", "benu", "emptyheaded", "graphflow"} {
		if p := sys.PlanFor(q, name); p != nil {
			t.Errorf("PlanFor(q, %q) = %s, want nil", name, p.Name)
		}
	}
	if _, _, size := sys.PlanCacheStats(); size != 2 {
		t.Errorf("plan cache holds %d plans, want 2 (optimal, wco)", size)
	}
}

func TestEnumerateIndexesByQueryVertex(t *testing.T) {
	// Path graph 0-1-2: the only triangle-free structure; use a 2-path
	// query (v1-v2-v3 with symmetry order v1<v3).
	g := FromEdges([][2]VertexID{{0, 1}, {1, 2}})
	q := NewQuery("2path", [][2]int{{0, 1}, {1, 2}})
	sys := NewSystem(g, Options{})
	var mu sync.Mutex
	var got [][]VertexID
	res, err := sys.Exec(context.Background(), q, OnMatch(func(m []VertexID) {
		mu.Lock()
		got = append(got, append([]VertexID(nil), m...))
		mu.Unlock()
	})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 || len(got) != 1 {
		t.Fatalf("count %d, matches %v", res.Count, got)
	}
	// Query vertex 1 is the path centre: must be data vertex 1.
	if got[0][1] != 1 {
		t.Fatalf("match %v: centre should be vertex 1", got[0])
	}
	if got[0][0] != 0 || got[0][2] != 2 {
		t.Fatalf("match %v: endpoints wrong (symmetry order v1<v3)", got[0])
	}
}

func TestLoadEdgeList(t *testing.T) {
	g, err := LoadEdgeList(strings.NewReader("0 1\n1 2\n2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	sys := NewSystem(g, Options{})
	res, err := sys.Exec(context.Background(), Triangle(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 1 {
		t.Fatalf("triangles = %d, want 1", res.Count)
	}
}

func TestQueryByName(t *testing.T) {
	names := []string{"q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8", "triangle"}
	for _, n := range names {
		if QueryByName(n) == nil {
			t.Errorf("QueryByName(%q) = nil", n)
		}
	}
	if QueryByName("bogus") != nil {
		t.Error("QueryByName(bogus) != nil")
	}
}

func TestMetricsExposed(t *testing.T) {
	g := Generate("GO", 1)
	sys := NewSystem(g, Options{Machines: 4, Workers: 2})
	res, err := sys.Exec(context.Background(), Q1(), CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BytesPulled == 0 {
		t.Error("no pulled bytes recorded on a 4-machine pulling plan")
	}
	if res.Plan == nil {
		t.Error("plan missing from result")
	}
}

func TestResultsDeterministicAcrossRuns(t *testing.T) {
	g := Generate("EU", 1)
	sys := NewSystem(g, Options{Machines: 2, Workers: 2})
	var counts []uint64
	for i := 0; i < 3; i++ {
		res, err := sys.Exec(context.Background(), Triangle(), CountOnly()).Wait()
		if err != nil {
			t.Fatal(err)
		}
		counts = append(counts, res.Count)
	}
	sort.Slice(counts, func(i, j int) bool { return counts[i] < counts[j] })
	if counts[0] != counts[len(counts)-1] {
		t.Fatalf("non-deterministic counts: %v", counts)
	}
}
