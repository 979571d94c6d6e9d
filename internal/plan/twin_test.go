package plan

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/query"
)

// TestTwinTailClasses checks the twin-class conditions on the catalog and
// on label-broken variants.
func TestTwinTailClasses(t *testing.T) {
	diamondLabels := query.Q2().WithVertexLabels([]int{1, 0, 2, 0})
	diamondEdgeLabels := query.Q2().WithEdgeLabels([]int{1, 2, 0, 0, 0}) // edges (0,1) (0,3) (1,2) (1,3) (2,3)
	for _, c := range []struct {
		q    *query.Query
		ts   []int
		want bool
	}{
		{query.Q1(), []int{1, 3}, true},  // v2, v4: each ordered after v1, and v2 < v4
		{query.Q1(), []int{0, 2}, false}, // v1 < v2 is not shared by v3
		{query.Q2(), []int{0, 2}, true},  // v1, v3 over the chord v2–v4
		{query.Q2(), []int{1, 3}, false}, // the chord's ends are adjacent
		{query.Q5(), []int{1, 3}, true},
		{query.Q3(), []int{0, 1}, false},
		{query.Q7(), []int{0, 5}, false}, // different neighbours
		{query.Q2(), []int{0}, false},    // a class has two members at least
		{diamondLabels, []int{0, 2}, false},
		{diamondEdgeLabels, []int{0, 2}, false},
	} {
		if got := twinClass(c.q, c.ts); got != c.want {
			t.Errorf("twinClass(%s, %v) = %v, want %v", c.q, c.ts, got, c.want)
		}
	}
	// Unordered twins (no automorphism exchanges differently labelled
	// neighbours, so no order is derived) are not a class.
	unordered := query.NewLabeled("unordered", [][2]int{{0, 1}, {1, 2}}, []int{1, 0, 2})
	if twinClass(unordered, []int{0, 2}) {
		t.Error("differently labelled leaves of a wedge form a twin class")
	}
}

// TestTwinTailMarks checks what Translate marks: the square's wco plan is
// the wedge shape, the diamond's chord-first plan counts both twins over
// the chord, the 3-star counts its last two leaves, and a plan without
// twins, or whose twins the labels tell apart, is left alone.
func TestTwinTailMarks(t *testing.T) {
	mark := func(q *query.Query) string {
		t.Helper()
		df, err := Translate(HugeWcoPlanStats(q, GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range df.Stages[len(df.Stages)-1].Extends {
			if e.TwinTail > 0 {
				kind := "tail"
				if e.TwinWedge {
					kind = "wedge"
				}
				return strings.Repeat(" ", i) + kind + string(rune('0'+e.TwinTail))
			}
		}
		return ""
	}
	star := query.New("k13", [][2]int{{0, 1}, {0, 2}, {0, 3}})
	for _, c := range []struct {
		q    *query.Query
		want string
	}{
		{query.Q1(), "wedge2"},
		{query.Q2(), "tail2"},
		{star, "tail2"},
		{query.Triangle(), ""},
		{query.Q3(), ""},
		{query.Q5(), ""},
		{query.Q2().WithVertexLabels([]int{1, 0, 2, 0}), ""},
	} {
		if got := mark(c.q); got != c.want {
			t.Errorf("%s: mark %q, want %q", c.q, got, c.want)
		}
	}
	// A delta flow qualifies only as translated: the twins' edges must be
	// restricted to older edges alike. The 3-star's flows pinning its first
	// and last edge restrict both remaining leaves' edges the same way, the
	// middle one only one of them; the diamond's chord flow restricts v1's
	// edges but only one of v3's.
	for _, c := range []struct {
		q    *query.Query
		want []int // twin tail per flow
	}{
		{star, []int{2, 0, 2}},
		{query.Q2(), []int{0, 0, 0, 0, 0}},
	} {
		flows, err := TranslateDelta(c.q)
		if err != nil {
			t.Fatal(err)
		}
		for i, df := range flows {
			ext := df.Stages[0].Extends
			if got := ext[len(ext)-2].TwinTail; got != c.want[i] {
				t.Errorf("%s delta flow pinning %v: twin tail %d, want %d\n%s", c.q.Name(), c.q.Edges()[i], got, c.want[i], df)
			}
		}
	}
}

// TestTwinTailPricing: a twin tail is priced at its prefix — the diamond's
// chord-first plan at its chord scan plus the pulled adjacency, the
// square's wedge shape at its wedge join — while the baseline planners'
// configs (IgnoreComm, Force*) never price it.
func TestTwinTailPricing(t *testing.T) {
	stats := testStats(t)
	cfg := Config{NumMachines: 2, GraphEdges: 12000, Card: MomentEstimator(stats)}
	comm := 2 * 12000.0

	q2 := query.Q2()
	chord := 1 << edgeIndex(q2, 1, 3)
	p2 := Optimize(q2, cfg)
	if want := cfg.Card(q2, uint32(chord)) + comm; math.Abs(p2.Cost-want) > 1e-9*want {
		t.Errorf("diamond: optimal plan costs %g, want the chord scan plus pulls %g\n%s", p2.Cost, want, p2)
	}

	q1 := query.Q1()
	p1 := Optimize(q1, cfg)
	edge, wedge := uint32(1)<<edgeIndex(q1, 0, 1), uint32(1)<<edgeIndex(q1, 0, 1)|1<<edgeIndex(q1, 1, 2)
	if want := cfg.Card(q1, edge) + cfg.Card(q1, wedge) + comm; math.Abs(p1.Cost-want) > 1e-9*want {
		t.Errorf("square: optimal plan costs %g, want its wedge join %g\n%s", p1.Cost, want, p1)
	}

	for _, base := range []Config{
		{NumMachines: 1, Card: cfg.Card, IgnoreComm: true},
		{NumMachines: 1, Card: cfg.Card, ForceAlg: new(JoinAlg), ForceComm: new(CommMode)},
	} {
		c := base.withDefaults()
		if _, ok := c.twinCost(p2, nil); ok {
			t.Errorf("%+v prices a twin tail", base)
		}
	}
}

// TestTwinTailPlanPins pins the optimal plans of the tracked classes
// without a twin tail on LJ statistics: twin pricing must leave them
// exactly as they were.
func TestTwinTailPlanPins(t *testing.T) {
	pins := map[*query.Query]string{
		query.Triangle(): `  join [wco, pulling] vmask=111
    unit star(v1; v3)
    unit star(v2; v1,v3)
`,
		query.Q3(): `  join [wco, pulling] vmask=1111
    join [wco, pulling] vmask=1101
      unit star(v1; v4)
      unit star(v3; v1,v4)
    unit star(v2; v1,v3,v4)
`,
		query.Q5(): `  join [wco, pulling] vmask=11111
    join [wco, pulling] vmask=1111
      unit star(v2; v1,v3)
      unit star(v4; v1,v3)
    unit star(v1; v5)
`,
		query.Q6(): `  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=111101
      join [wco, pulling] vmask=111100
        unit star(v4; v3,v6)
        unit star(v5; v3,v6)
      unit star(v1; v3)
    unit star(v2; v1,v4)
`,
		query.Q7(): `  join [hash, pushing] vmask=111111
    join [wco, pulling] vmask=1111
      unit star(v2; v1,v3)
      unit star(v3; v4)
    unit star(v5; v4,v6)
`,
		query.Q8(): `  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=111011
      join [wco, pulling] vmask=111001
        join [wco, pulling] vmask=111000
          unit star(v4; v6)
          unit star(v5; v4,v6)
        unit star(v1; v4)
      unit star(v2; v1,v5)
    unit star(v3; v1,v2,v6)
`,
	}
	g := gen.ByName("LJ", 1)
	stats := ComputeStats(g)
	for _, machines := range []int{1, 2} {
		cfg := Config{NumMachines: machines, GraphEdges: float64(g.NumEdges()), Card: MomentEstimator(stats)}
		for q, want := range pins {
			p := Optimize(q, cfg)
			if got := treeString(p); got != want {
				t.Errorf("k=%d %s plan changed:\n%swant\n%s", machines, q.Name(), got, want)
			}
			df, err := Translate(p)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(df.String(), "twins") {
				t.Errorf("k=%d %s: a twin tail in\n%s", machines, q.Name(), df)
			}
		}
	}
}

// TestTwinTailValidate: Validate rejects twin-tail marks the engine could
// not honour.
func TestTwinTailValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(st *dataflow.Stage)
	}{
		{"a tail of one", func(st *dataflow.Stage) { st.Extends[0].TwinTail = 1 }},
		{"a tail running past the sink", func(st *dataflow.Stage) {
			st.Extends[0].TwinTail, st.Extends[0].TwinWedge = 0, false
			st.Extends[1].TwinTail = 2
		}},
		{"a wedge off the first extend", func(st *dataflow.Stage) {
			st.Extends[0].TwinTail, st.Extends[0].TwinWedge = 0, false
			st.Extends[1].TwinTail, st.Extends[1].TwinWedge = 2, true
		}},
	} {
		df, err := Translate(HugeWcoPlanStats(query.Q1(), GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(df.Stages[0])
		if df.Validate() == nil {
			t.Errorf("%s: Validate accepted\n%s", c.name, df)
		}
	}
}
