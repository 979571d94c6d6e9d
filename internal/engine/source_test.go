package engine

import (
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
)

func TestScanIterEmitsDirectedEdges(t *testing.T) {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}})
	cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	it := newScanIter(cl.Machines[0], &dataflow.EdgeScan{QA: 0, QB: 1})
	var rows int
	for {
		b, ok, err := it.nextBatch(100)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		rows += b.Rows()
	}
	// Each undirected edge appears once per direction: 2 edges -> 4 rows.
	if rows != 4 {
		t.Fatalf("scan rows = %d, want 4", rows)
	}
}

func TestScanIterOrderFilterHalves(t *testing.T) {
	g := gen.PowerLaw(100, 3, 1)
	cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	scanAll := newScanIter(cl.Machines[0], &dataflow.EdgeScan{QA: 0, QB: 1})
	scanHalf := newScanIter(cl.Machines[0], &dataflow.EdgeScan{
		QA: 0, QB: 1, Filters: []dataflow.OrderFilter{{SlotA: 0, SlotB: 1}},
	})
	count := func(it *scanIter) int {
		n := 0
		for {
			b, ok, err := it.nextBatch(64)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				return n
			}
			n += b.Rows()
			for i := 0; i < b.Rows(); i++ {
				_ = b.Row(i)
			}
		}
	}
	all, half := count(scanAll), count(scanHalf)
	if all != 2*int(g.NumEdges()) {
		t.Fatalf("unfiltered scan %d rows, want %d", all, 2*g.NumEdges())
	}
	if half != int(g.NumEdges()) {
		t.Fatalf("filtered scan %d rows, want %d", half, g.NumEdges())
	}
}

func TestScanIterBatchBoundary(t *testing.T) {
	g := gen.PowerLaw(50, 3, 2)
	cl := cluster.New(g, cluster.Config{NumMachines: 1, Workers: 1, CacheKind: cache.LRBU}).NewExec()
	// Batch size 1 forces the iterator to suspend mid-adjacency-list.
	it := newScanIter(cl.Machines[0], &dataflow.EdgeScan{QA: 0, QB: 1})
	rows := 0
	for {
		b, ok, err := it.nextBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if b.Rows() != 1 {
			t.Fatalf("batch of %d rows with maxRows 1", b.Rows())
		}
		rows++
	}
	if rows != 2*int(g.NumEdges()) {
		t.Fatalf("resumed scan rows = %d, want %d", rows, 2*g.NumEdges())
	}
}

// TestScanItersPartitionTheEdgeList is the differential that replaced the
// materialised per-machine vertex lists: whatever the machine count and
// however the walk is seeded, the machines' scans together emit the
// oracle's ordered edge list — every qualifying (u, w) exactly once, in
// ascending order per machine, by the machine that owns u.
func TestScanItersPartitionTheEdgeList(t *testing.T) {
	g := gen.ZipfEdgeLabels(gen.ZipfLabels(gen.PowerLaw(300, 3, 5), 4, 1.2, 7), 3, 1.2, 9)
	scans := []struct {
		name string
		scan dataflow.EdgeScan
	}{
		{"unseeded", dataflow.EdgeScan{QA: 0, QB: 1, LabelA: -1, LabelB: -1, EdgeLabel: -1}},
		{"LabelA-seeded", dataflow.EdgeScan{QA: 0, QB: 1, LabelA: 1, LabelB: -1, EdgeLabel: -1}},
		{"edge-label-seeded", dataflow.EdgeScan{QA: 0, QB: 1, LabelA: -1, LabelB: -1, EdgeLabel: 1}},
		{"triple-seeded", dataflow.EdgeScan{QA: 0, QB: 1, LabelA: 0, LabelB: -1, EdgeLabel: 2}},
		{"LabelB-filtered", dataflow.EdgeScan{QA: 0, QB: 1, LabelA: -1, LabelB: 2, EdgeLabel: -1}},
	}
	wants := func(want int, got graph.LabelID) bool { return want < 0 || want == int(got) }
	for _, sc := range scans {
		var oracle [][2]graph.VertexID
		for u := 0; u < g.NumVertices(); u++ {
			u := graph.VertexID(u)
			for _, w := range g.Neighbors(u) {
				if wants(sc.scan.LabelA, g.Label(u)) && wants(sc.scan.LabelB, g.Label(w)) && wants(sc.scan.EdgeLabel, g.EdgeLabel(u, w)) {
					oracle = append(oracle, [2]graph.VertexID{u, w})
				}
			}
		}
		if len(oracle) == 0 || len(oracle) == 2*int(g.NumEdges()) && sc.name != "unseeded" {
			t.Fatalf("%s: constraint selects %d of %d rows; the case tests nothing", sc.name, len(oracle), 2*g.NumEdges())
		}
		for _, k := range []int{1, 2, 3} {
			ex := cluster.New(g, cluster.Config{NumMachines: k, Workers: 1}).NewExec()
			var got [][2]graph.VertexID
			for _, m := range ex.Machines {
				it := newScanIter(m, &sc.scan)
				first := len(got)
				for {
					b, ok, err := it.nextBatch(7) // suspends mid-adjacency-list
					if err != nil {
						t.Fatal(err)
					}
					if !ok {
						break
					}
					for i := 0; i < b.Rows(); i++ {
						row := [2]graph.VertexID(b.Row(i))
						if !m.Owns(row[0]) {
							t.Fatalf("%s k=%d: machine %d emitted %v, whose first vertex it does not own", sc.name, k, m.ID, row)
						}
						got = append(got, row)
					}
				}
				if !slices.IsSortedFunc(got[first:], func(a, b [2]graph.VertexID) int { return slices.Compare(a[:], b[:]) }) {
					t.Fatalf("%s k=%d: machine %d's rows are not in edge-list order", sc.name, k, m.ID)
				}
				if k > 1 && len(got)-first == len(oracle) {
					t.Fatalf("%s k=%d: machine %d emitted every row", sc.name, k, m.ID)
				}
			}
			slices.SortFunc(got, func(a, b [2]graph.VertexID) int { return slices.Compare(a[:], b[:]) })
			if !slices.Equal(got, oracle) {
				t.Fatalf("%s k=%d: %d rows, oracle has %d (or they differ)", sc.name, k, len(got), len(oracle))
			}
		}
	}
}

// buildRel loads rows into a Relation for join-iterator tests.
func buildRel(t *testing.T, width int, keys []int, rows [][]graph.VertexID) RowIter {
	t.Helper()
	r := NewRelation(width, keys, 0, nil)
	for _, row := range rows {
		if err := r.Add(row); err != nil {
			t.Fatal(err)
		}
	}
	it, err := r.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return it
}

func TestJoinIterBasic(t *testing.T) {
	// Left: (a, k); right: (k, b). Join on k, copy b.
	j := &dataflow.Join{
		LeftKey: []int{1}, RightKey: []int{0},
		RightCopy: []int{1},
		OutLayout: []int{0, 1, 2},
	}
	left := buildRel(t, 2, []int{1}, [][]graph.VertexID{{10, 1}, {11, 1}, {12, 2}})
	right := buildRel(t, 2, []int{0}, [][]graph.VertexID{{1, 20}, {1, 21}, {3, 30}})
	it := newJoinIter(j, left, right)
	var rows [][]graph.VertexID
	for {
		b, ok, err := it.nextBatch(100)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < b.Rows(); i++ {
			rows = append(rows, append([]graph.VertexID(nil), b.Row(i)...))
		}
	}
	// Key 1: 2 left x 2 right = 4; key 2: no right; key 3: no left.
	if len(rows) != 4 {
		t.Fatalf("join produced %v", rows)
	}
	for _, r := range rows {
		if r[1] != 1 {
			t.Fatalf("row %v has wrong key", r)
		}
	}
}

func TestJoinIterCrossDistinctAndFilters(t *testing.T) {
	j := &dataflow.Join{
		LeftKey: []int{1}, RightKey: []int{0},
		RightCopy:     []int{1},
		OutLayout:     []int{0, 1, 2},
		CrossDistinct: [][2]int{{0, 2}},
		CrossFilters:  []dataflow.OrderFilter{{SlotA: 0, SlotB: 2}},
	}
	left := buildRel(t, 2, []int{1}, [][]graph.VertexID{{10, 1}, {30, 1}})
	right := buildRel(t, 2, []int{0}, [][]graph.VertexID{{1, 10}, {1, 20}})
	it := newJoinIter(j, left, right)
	var rows [][]graph.VertexID
	for {
		b, ok, err := it.nextBatch(100)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		for i := 0; i < b.Rows(); i++ {
			rows = append(rows, append([]graph.VertexID(nil), b.Row(i)...))
		}
	}
	// Candidates: (10,1,10) fails distinct; (10,1,20) passes 10<20;
	// (30,1,10) fails order; (30,1,20) fails order.
	if len(rows) != 1 || rows[0][0] != 10 || rows[0][2] != 20 {
		t.Fatalf("join rows = %v, want [[10 1 20]]", rows)
	}
}

func TestJoinIterEmptySides(t *testing.T) {
	j := &dataflow.Join{LeftKey: []int{0}, RightKey: []int{0}, OutLayout: []int{0, 1}}
	left := buildRel(t, 2, []int{0}, nil)
	right := buildRel(t, 2, []int{0}, [][]graph.VertexID{{1, 2}})
	it := newJoinIter(j, left, right)
	if _, ok, err := it.nextBatch(10); err != nil || ok {
		t.Fatalf("empty join: ok=%v err=%v", ok, err)
	}
}

func TestJoinIterSmallBatches(t *testing.T) {
	// maxRows=1 exercises suspend/resume inside a key group.
	j := &dataflow.Join{
		LeftKey: []int{0}, RightKey: []int{0},
		RightCopy: []int{1}, OutLayout: []int{0, 1, 2},
	}
	var lrows, rrows [][]graph.VertexID
	for i := 0; i < 5; i++ {
		lrows = append(lrows, []graph.VertexID{7, graph.VertexID(i)})
		rrows = append(rrows, []graph.VertexID{7, graph.VertexID(100 + i)})
	}
	it := newJoinIter(j, buildRel(t, 2, []int{0}, lrows), buildRel(t, 2, []int{0}, rrows))
	total := 0
	for {
		b, ok, err := it.nextBatch(1)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		total += b.Rows()
	}
	if total != 25 {
		t.Fatalf("cross product size %d, want 25", total)
	}
}
