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
// Translate does, except q7's and q6's. q7's prefix SCAN(v3–v2) → v4 → v5
// carries v3 < v4, and the path ends v1, v6 are an unordered pair with no
// order against the prefix. q6 is counted at its middle rung under
// {v3 < v4, v1 < v5}. The plan tree is the one Optimize gave.
func TestTranslateCountSwitch(t *testing.T) {
	qs := append(query.Catalog(), query.Triangle())
	for _, ds := range []string{"LJ", "OR", "EU"} {
		g := gen.ByName(ds, 1)
		cfg := Config{GraphEdges: float64(g.NumEdges()), Card: MomentEstimator(ComputeStats(g))}
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

// checkQ7Count checks q7's counting translation: one stage, layout v3 v2
// v4 v5 v1 v6, v4 > v3 its only order, and an unordered pair tail.
func checkQ7Count(t *testing.T, ds string, machines int, df *dataflow.Dataflow) {
	t.Helper()
	st := df.Stages[len(df.Stages)-1]
	ext := st.Extends
	if len(df.Stages) != 1 || !slices.Equal(st.OutputLayout(), []int{2, 1, 3, 4, 0, 5}) || len(ext) != 4 {
		t.Fatalf("%s×%d q7: not SCAN(v3–v2) → v4 → v5 → (v1, v6):\n%s", ds, machines, df)
	}
	var filters []dataflow.NewFilter
	for _, e := range ext {
		filters = append(filters, e.NewFilters...)
	}
	if len(st.Scan.Filters) != 0 || !slices.Equal(ext[0].NewFilters, []dataflow.NewFilter{{Slot: 0, NewLess: false}}) || len(filters) != 1 {
		t.Errorf("%s×%d q7: orders %v on the scan, %v on the extends; want v4 > v3 alone", ds, machines, st.Scan.Filters, filters)
	}
	if ext[2].Tail != 2 || ext[2].SameCandidates(ext[3], 4) {
		t.Errorf("%s×%d q7: tail %d; want a pair of different sets", ds, machines, ext[2].Tail)
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
