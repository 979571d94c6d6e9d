package plan

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/query"
)

// TestTranslateCountSwitch: across LJ, OR and EU at Machines 1 and 2, the
// optimal plans of q1–q8 and the triangle translate for counting exactly as
// Translate does, except q7's and q6's, which are counted at a separator:
// q7 at its middle edge under {v3 < v4}, q6 at its middle rung under
// {v3 < v4, v1 < v5}. No optimal plan of the grid takes the layout-chain
// switch; q7's wco plan, which a Limit run counts with, does: its prefix
// SCAN(v2–v3) → v4 → v5 gets {v2 < v5} in place of the ends' {v1 < v6}.
// The plan tree is the one Optimize gave.
func TestTranslateCountSwitch(t *testing.T) {
	qs := append(query.Catalog(), query.Triangle())
	for _, ds := range []string{"LJ", "OR", "EU"} {
		g := gen.ByName(ds, 1)
		stats := ComputeStats(g)
		cfg := Config{GraphEdges: float64(g.NumEdges()), Card: MomentEstimator(stats)}
		wco, err := TranslateCount(HugeWcoPlanStats(query.Q7(), stats))
		if err != nil {
			t.Fatal(err)
		}
		if st := wco.Stages[len(wco.Stages)-1]; len(wco.Stages) != 1 || !slices.Equal(st.OutputLayout(), []int{1, 2, 3, 4, 0, 5}) ||
			!slices.Equal(st.Extends[1].NewFilters, []dataflow.NewFilter{{Slot: 0, NewLess: false}}) || len(st.Extends[3].NewFilters) != 0 {
			t.Errorf("%s q7: the wco plan's counting translation does not order v2 < v5 on its prefix:\n%s", ds, wco)
		}
		for _, machines := range []int{1, 2} {
			cfg.NumMachines = machines
			for _, q := range qs {
				p := Optimize(q, cfg)
				tree := treeString(p)
				df, err := Translate(p)
				if err != nil {
					t.Fatal(err)
				}
				got, err := TranslateCount(p)
				if err != nil {
					t.Fatal(err)
				}
				if treeString(p) != tree {
					t.Errorf("%s×%d %s: TranslateCount changed the plan tree", ds, machines, q.Name())
				}
				switch q.Name() {
				case query.Q7().Name():
					checkQ7Count(t, ds, machines, got)
				case query.Q6().Name():
					checkQ6Count(t, ds, machines, got)
				default:
					if !reflect.DeepEqual(got, df) {
						t.Errorf("%s×%d %s: counting translation differs from Translate:\n%s", ds, machines, q.Name(), got)
					}
				}
			}
		}
	}
}

// checkQ7Count checks q7's counting translation: one stage, the middle
// edge v3–v4 scanned under v3 < v4, then v2, v5, v1, v6 with no order, and
// the path separator marked.
func checkQ7Count(t *testing.T, ds string, machines int, df *dataflow.Dataflow) {
	t.Helper()
	st := df.Stages[len(df.Stages)-1]
	if len(df.Stages) != 1 || !slices.Equal(st.OutputLayout(), []int{2, 3, 1, 4, 0, 5}) || st.Separator != dataflow.PathSeparator {
		t.Fatalf("%s×%d q7: not SCAN(v3–v4) → v2 → v5 → v1 → v6 at a path separator:\n%s", ds, machines, df)
	}
	var filters []dataflow.NewFilter
	for _, e := range st.Extends {
		filters = append(filters, e.NewFilters...)
	}
	if !slices.Equal(st.Scan.Filters, []dataflow.OrderFilter{{SlotA: 0, SlotB: 1}}) || len(filters) != 0 {
		t.Errorf("%s×%d q7: orders %v on the scan, %v on the extends; want v3 < v4 alone\n%s", ds, machines, st.Scan.Filters, filters, df)
	}
}

// checkQ6Count checks q6's counting translation: one stage, the middle
// rung v3–v4 scanned under v3 < v4, the sides v1–v2 and v5–v6 extended
// under v1 < v5 alone, and the rung separator marked.
func checkQ6Count(t *testing.T, ds string, machines int, df *dataflow.Dataflow) {
	t.Helper()
	st := df.Stages[len(df.Stages)-1]
	if len(df.Stages) != 1 || !slices.Equal(st.OutputLayout(), []int{2, 3, 0, 1, 4, 5}) || st.Separator != dataflow.RungSeparator {
		t.Fatalf("%s×%d q6: not SCAN(v3–v4) → v1 → v2 → v5 → v6 at a rung separator:\n%s", ds, machines, df)
	}
	if !slices.Equal(st.Scan.Filters, []dataflow.OrderFilter{{SlotA: 0, SlotB: 1}}) ||
		!slices.Equal(st.Extends[2].NewFilters, []dataflow.NewFilter{{Slot: 2, NewLess: false}}) {
		t.Errorf("%s×%d q6: orders %v on the scan, %v on v5; want v3 < v4 and v5 > v1\n%s", ds, machines, st.Scan.Filters, st.Extends[2].NewFilters, df)
	}
}

// TestTranslateCountKeepsLongerTail: a break that would turn a counted tail
// into enumeration is not taken. The 4-star's wco plan counts its last
// three leaves as twins; under a break that orders them apart from the
// first leaf in different directions they are no twin class.
func TestTranslateCountKeepsLongerTail(t *testing.T) {
	q := query.New("4-star", [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	p := HugeWcoPlanStats(q, testStats(t))
	df, err := Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	if k, n := countedTail(df.Stages[0]); n != 3 {
		t.Fatalf("4-star: tail of %d from extend %d, want 3 twins:\n%s", n, k, df)
	}
	leaves := df.Stages[0].OutputLayout()[1:]
	// Bases: the second leaf matched, then the third: each is ordered
	// below the leaves still moving, the first among them.
	orders := q.OrdersBy(append([]int{leaves[1], leaves[2]}, append(leaves[:1:1], leaves[3], 0)...))
	alt, err := translate(p, orders)
	if err != nil {
		t.Fatal(err)
	}
	if _, n := countedTail(alt.Stages[0]); n >= 3 {
		t.Fatalf("4-star under %v: tail of %d, want a shorter one", orders, n)
	}
	if got := longerTail(df, alt); got != df {
		t.Errorf("longerTail took the break with the shorter tail")
	}
	if got := longerTail(alt, df); got != df {
		t.Errorf("longerTail kept the shorter tail over a longer one")
	}
}
