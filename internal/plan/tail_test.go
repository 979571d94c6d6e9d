package plan

import (
	"fmt"
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
		if got := twinClass(c.q, c.q.Orders(), c.ts); got != c.want {
			t.Errorf("twinClass(%s, %v) = %v, want %v", c.q, c.ts, got, c.want)
		}
	}
	// Unordered twins (no automorphism exchanges differently labelled
	// neighbours, so no order is derived) are not a class.
	unordered := query.NewLabeled("unordered", [][2]int{{0, 1}, {1, 2}}, []int{1, 0, 2})
	if twinClass(unordered, unordered.Orders(), []int{0, 2}) {
		t.Error("differently labelled leaves of a wedge form a twin class")
	}
}

// TestTwinTailMarks checks what Translate marks: the square's wco plan is
// the wedge shape, the diamond's chord-first plan counts both twins over
// the chord, the 3-star counts its last two leaves, the 4-star its last
// three (twins), and a plan whose last two targets are independent counts
// them as a pair even when no twins are left: the tailed square's v4 and
// pendant, the diamond whose labels tell its twins apart. A plan that ends
// in one extend, or in adjacent targets, is left alone.
func TestTwinTailMarks(t *testing.T) {
	mark := func(q *query.Query) string {
		t.Helper()
		df, err := Translate(HugeWcoPlanStats(q, GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		st := df.Stages[len(df.Stages)-1]
		if st.Separator == dataflow.WedgeSeparator {
			return "wedge" + string(rune('0'+len(st.Extends)))
		}
		for i, e := range st.Extends {
			if e.Tail > 0 {
				return strings.Repeat(" ", i) + "tail" + string(rune('0'+e.Tail))
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
		{query.New("k14", [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}), "tail3"},
		{query.Triangle(), ""},
		{query.Q3(), ""},
		{query.Q5(), " tail2"},
		{query.Q2().WithVertexLabels([]int{1, 0, 2, 0}), "tail2"},
	} {
		if got := mark(c.q); got != c.want {
			t.Errorf("%s: mark %q, want %q", c.q, got, c.want)
		}
	}
	// A delta flow qualifies as translated. The 3-star's flows pinning its
	// first and last edge restrict both remaining leaves' edges the same
	// way (twins), the middle one only one of them (a pair); the diamond's
	// chord flow ends in v1 and v3 over the chord (a pair: v1's edges are
	// restricted to older ones, one of v3's is), its other flows in
	// adjacent targets.
	for _, c := range []struct {
		q    *query.Query
		want []int // tail per flow
	}{
		{star, []int{2, 2, 2}},
		{query.Q2(), []int{0, 0, 0, 2, 0}},
	} {
		flows, err := TranslateDelta(c.q)
		if err != nil {
			t.Fatal(err)
		}
		for i, df := range flows {
			ext := df.Stages[0].Extends
			if got := ext[len(ext)-2].Tail; got != c.want[i] {
				t.Errorf("%s delta flow pinning %v: tail %d, want %d\n%s", c.q.Name(), c.q.Edges()[i], got, c.want[i], df)
			}
		}
	}
}

// TestTwinTailPricing: a tail is priced at its prefix — the diamond's
// chord-first plan at its chord scan plus the pulled adjacency, the
// square's wedge shape at its wedge join, the 5-path's pair at its 3-path
// plus the two sets it builds per row, the ladder at its rung and the
// side completions it builds — while the baseline planners' configs
// (IgnoreComm, Force*) never price it.
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

	// q7's pair tail: the 3-path v2–v5 scanned and extended, plus both ends'
	// sets built per row — the 4-paths v1–v5 and v2–v6.
	q7 := query.Q7()
	edges := func(es ...[2]int) uint32 {
		var m uint32
		for _, e := range es {
			m |= 1 << edgeIndex(q7, e[0], e[1])
		}
		return m
	}
	path := edges([2]int{1, 2}, [2]int{2, 3}, [2]int{3, 4})
	p7 := Optimize(q7, cfg)
	mid := edges([2]int{1, 2}, [2]int{2, 3})
	prefix := cfg.Card(q7, mid) + cfg.Card(q7, path) + comm // SCAN(v3; v2, v4) then EXTEND(v4 ⇒ v5)
	sets := cfg.Card(q7, path|edges([2]int{0, 1})) + cfg.Card(q7, path|edges([2]int{4, 5}))
	if want := prefix + comm + sets; math.Abs(p7.Cost-want) > 1e-9*want {
		t.Errorf("5-path: optimal plan costs %g, want its 3-path, the pulls and both ends' sets %g\n%s", p7.Cost, want, p7)
	}

	// q6 at its middle rung v3–v4: the rung scanned, plus one intersection
	// N(x) ∩ N(b) per wedge v1–v3–v4.
	q6 := query.Q6()
	rung := uint32(1) << edgeIndex(q6, 2, 3)
	p6 := Optimize(q6, cfg)
	if want := cfg.Card(q6, rung) + cfg.Card(q6, rung|1<<edgeIndex(q6, 0, 2)) + comm; math.Abs(p6.Cost-want) > 1e-9*want {
		t.Errorf("ladder: optimal plan costs %g, want its rung and the wedges x–a–b %g\n%s", p6.Cost, want, p6)
	}

	for _, base := range []Config{
		{NumMachines: 1, Card: cfg.Card, IgnoreComm: true},
		{NumMachines: 1, Card: cfg.Card, ForceAlg: new(JoinAlg), ForceComm: new(CommMode)},
	} {
		c := base.withDefaults()
		for _, p := range []*Plan{p2, p1, p6} {
			if _, ok := c.tailCost(p, nil); ok {
				t.Errorf("%+v prices %s's tail or separator", base, p.Q.Name())
			}
		}
	}
}

// TestTwinTailPlanPins pins the optimal plans of the tracked classes on LJ
// statistics and the tails they translate to. Tail pricing leaves every
// tree but q7's and q6's exactly as it was: the tailed square's plan now
// ends in a pair (v4 and the pendant v5), which it counted by enumerating
// v5 before. q7 leaves Exp-9's 3-path ⋈ 2-path PUSH-JOIN for the 3-path
// v2–v5 with its two ends counted as an ordered pair. q6 leaves the square
// v3–v4–v6–v5 extended by v1 and counted at v2 for its middle rung and the
// sides beside it, which a counting run counts at the rung (rungBreak); a
// stream enumerates the same tree under q6's own orders, with no mark.
func TestTwinTailPlanPins(t *testing.T) {
	pins := map[*query.Query]struct{ tree, tail string }{
		query.Triangle(): {`  join [wco, pulling] vmask=111
    unit star(v1; v3)
    unit star(v2; v1,v3)
`, ""},
		query.Q3(): {`  join [wco, pulling] vmask=1111
    join [wco, pulling] vmask=1101
      unit star(v1; v4)
      unit star(v3; v1,v4)
    unit star(v2; v1,v3,v4)
`, ""},
		query.Q5(): {`  join [wco, pulling] vmask=11111
    join [wco, pulling] vmask=1111
      unit star(v2; v1,v3)
      unit star(v4; v1,v3)
    unit star(v1; v5)
`, "[tail 2]"},
		query.Q6(): {q6RungTree, ""},
		query.Q7(): {q7TailTree, "[tail 2]"},
		query.Q8(): {`  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=111011
      join [wco, pulling] vmask=111001
        join [wco, pulling] vmask=111000
          unit star(v4; v6)
          unit star(v5; v4,v6)
        unit star(v1; v4)
      unit star(v2; v1,v5)
    unit star(v3; v1,v2,v6)
`, ""},
	}
	g := gen.ByName("LJ", 1)
	stats := ComputeStats(g)
	for _, machines := range []int{1, 2} {
		cfg := Config{NumMachines: machines, GraphEdges: float64(g.NumEdges()), Card: MomentEstimator(stats)}
		for q, want := range pins {
			p := Optimize(q, cfg)
			if got := treeString(p); got != want.tree {
				t.Errorf("k=%d %s plan changed:\n%swant\n%s", machines, q.Name(), got, want.tree)
			}
			df, err := Translate(p)
			if err != nil {
				t.Fatal(err)
			}
			tail := ""
			for _, e := range df.Stages[len(df.Stages)-1].Extends {
				if e.Tail > 0 {
					tail = fmt.Sprintf("[tail %d]", e.Tail)
				}
			}
			if tail != want.tail {
				t.Errorf("k=%d %s: tail mark %q, want %q in\n%s", machines, q.Name(), tail, want.tail, df)
			}
		}
	}
}

// q6RungTree is q6's optimal plan on the LJ, OR and EU statistics: the
// middle rung v3–v4 scanned, then the sides v1–v2 and v5–v6 beside it.
// Against the square-first plan it replaced, CountOnly at Machines 2 and
// Workers 1 went 135 → 26 ms on EU×1 and 56 → 1.4 s on LJ×1 (2 vCPUs,
// min of 30 runs and of 2).
const q6RungTree = `  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=11111
      join [wco, pulling] vmask=1111
        join [wco, pulling] vmask=1101
          unit star(v3; v4)
          unit star(v1; v3)
        unit star(v2; v1,v4)
      unit star(v3; v5)
    unit star(v6; v4,v5)
`

// q7TailTree is q7's optimal plan on the LJ, OR and EU statistics: the
// 3-path v2–v5, then v1 and v6 as the pair tail.
const q7TailTree = `  join [wco, pulling] vmask=111111
    join [wco, pulling] vmask=11111
      join [wco, pulling] vmask=11110
        unit star(v3; v2,v4)
        unit star(v4; v5)
      unit star(v1; v2)
    unit star(v5; v6)
`

// TestTwinTailValidate: Validate rejects twin-tail marks the engine could
// not honour.
func TestTwinTailValidate(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(st *dataflow.Stage)
	}{
		{"a tail of one", func(st *dataflow.Stage) { st.Extends[0].Tail = 1 }},
		{"a tail running past the sink", func(st *dataflow.Stage) {
			st.Separator = dataflow.NoSeparator
			st.Extends[1].Tail = 2
		}},
		{"a wedge step off the scanned twin", func(st *dataflow.Stage) { st.Extends[0].ExtSlots = []int{0} }},
		{"a rung separator on the square", func(st *dataflow.Stage) { st.Separator = dataflow.RungSeparator }},
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
	// A tail must read only its prefix, and beyond two targets draw from
	// one set: the 3-path's tail with its last extend rewired to read the
	// one before, and a 4-star's leaves labelled apart (three sets).
	star := query.NewLabeled("k14", [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}}, []int{0, 1, 2, 3, 4})
	for _, q := range []*query.Query{query.New("p4", [][2]int{{0, 1}, {1, 2}, {2, 3}}), star} {
		df, err := Translate(HugeWcoPlanStats(q, GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		ext := df.Stages[0].Extends
		for _, e := range ext {
			e.Tail = 0
		}
		k := 2
		if q == star {
			k = 3
		}
		ext[len(ext)-k].Tail = k
		if q != star {
			ext[len(ext)-1].ExtSlots = []int{len(ext[len(ext)-2].OutLayout) - 1}
		}
		if df.Validate() == nil {
			t.Errorf("%s: Validate accepted\n%s", q.Name(), df)
		}
	}
}
