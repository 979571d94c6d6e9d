package huge_test

import (
	"context"
	"math/rand"
	"sync/atomic"
	"testing"

	"repro/gpm"
	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/query"
)

// TestLabeledUniformMatchesUnlabeled is the differential property test: on
// a uniformly single-labelled graph every labelled query must return
// exactly its unlabelled count — engine vs the ground-truth oracle — for
// q1–q8, the triangle, and every 4-vertex gpm pattern.
func TestLabeledUniformMatchesUnlabeled(t *testing.T) {
	base := gen.PowerLaw(500, 3, 17)
	uniform := huge.WithLabels(base, make([]huge.LabelID, base.NumVertices()))
	sysU := huge.NewSystem(base, huge.Options{Machines: 3, Workers: 2})
	sysL := huge.NewSystem(uniform, huge.Options{Machines: 3, Workers: 2})

	queries := append([]*huge.Query{huge.Triangle()}, query.Catalog()...)
	queries = append(queries, gpm.ConnectedPatterns(4)...)
	for _, q := range queries {
		zeros := make([]int, q.NumVertices())
		lq := q.WithVertexLabels(zeros)
		want := baseline.GroundTruthCount(base, q)
		if got := baseline.GroundTruthCount(uniform, lq); got != want {
			t.Fatalf("%s: labelled oracle %d, unlabelled oracle %d", q.Name(), got, want)
		}
		resU, err := sysU.Exec(context.Background(), q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s unlabelled: %v", q.Name(), err)
		}
		resL, err := sysL.Exec(context.Background(), lq, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s labelled: %v", q.Name(), err)
		}
		if resU.Count != want || resL.Count != want {
			t.Errorf("%s: unlabelled %d, labelled %d, oracle %d", q.Name(), resU.Count, resL.Count, want)
		}
	}
}

// TestLabeledEngineMatchesOracle cross-checks mixed (constrained +
// wildcard) label signatures on a Zipf-labelled graph, with the compressed
// counting path on (the default) and off.
func TestLabeledEngineMatchesOracle(t *testing.T) {
	lg := gen.ZipfLabels(gen.PowerLaw(600, 3, 29), 8, 1.7, 13)
	rng := rand.New(rand.NewSource(41))
	sys := huge.NewSystem(lg, huge.Options{Machines: 3, Workers: 2})
	sysNC := huge.NewSystem(lg, huge.Options{Machines: 2, Workers: 2})
	for _, q := range query.Catalog() {
		labels := make([]int, q.NumVertices())
		for v := range labels {
			switch rng.Intn(3) {
			case 0:
				labels[v] = huge.AnyLabel
			case 1:
				labels[v] = 0 // frequent head
			default:
				labels[v] = 1 + rng.Intn(3)
			}
		}
		lq := q.WithVertexLabels(labels)
		want := baseline.GroundTruthCount(lg, lq)
		res, err := sys.Exec(context.Background(), lq, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s: %v", lq, err)
		}
		if res.Count != want {
			t.Errorf("%s: engine %d, oracle %d", lq, res.Count, want)
		}
		// OnMatch delivery materialises every match, so the final extension
		// runs uncompressed.
		var delivered atomic.Uint64
		resNC, err := sysNC.Exec(context.Background(), lq,
			huge.OnMatch(func([]huge.VertexID) { delivered.Add(1) })).Wait()
		if err != nil {
			t.Fatalf("%s (no compress): %v", lq, err)
		}
		if resNC.Count != want || delivered.Load() != want {
			t.Errorf("%s (no compress): engine %d, delivered %d, oracle %d", lq, resNC.Count, delivered.Load(), want)
		}
	}
}

// TestSelectiveLabelShrinksExecution is the acceptance check: a query over
// a label held by ≤10% of vertices must enumerate with strictly fewer
// intermediate tuples — and less pulled data and wall time — than its
// unlabelled twin, while agreeing with the label-aware oracle.
func TestSelectiveLabelShrinksExecution(t *testing.T) {
	lg := gen.ZipfLabels(gen.PowerLaw(4000, 4, 43), 16, 1.8, 7)
	// Pick the most frequent label still covering at most 10% of vertices.
	rare := -1
	for l := 0; l < lg.NumLabels(); l++ {
		c := lg.LabelCount(huge.LabelID(l))
		if c > 0 && c <= lg.NumVertices()/10 && (rare < 0 || c > lg.LabelCount(huge.LabelID(rare))) {
			rare = l
		}
	}
	if rare < 0 {
		t.Fatal("no selective label in the Zipf assignment")
	}
	sys := huge.NewSystem(lg, huge.Options{Machines: 3, Workers: 2})
	qU := huge.Triangle()
	qL := qU.WithVertexLabels([]int{rare, rare, rare})

	resU, err := sys.Exec(context.Background(), qU, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	resL, err := sys.Exec(context.Background(), qL, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := baseline.GroundTruthCount(lg, qL); resL.Count != want {
		t.Fatalf("labelled count %d, oracle %d", resL.Count, want)
	}
	if resL.Metrics.PeakTuples >= resU.Metrics.PeakTuples {
		t.Errorf("peak tuples not reduced: labelled %d vs unlabelled %d",
			resL.Metrics.PeakTuples, resU.Metrics.PeakTuples)
	}
	if resL.Metrics.BytesPulled >= resU.Metrics.BytesPulled {
		t.Errorf("pulled bytes not reduced: labelled %d vs unlabelled %d",
			resL.Metrics.BytesPulled, resU.Metrics.BytesPulled)
	}
	// Wall time: the reduction is ~10x on this graph; assert only a 2x
	// margin so scheduler/GC jitter under -race cannot flip the comparison
	// (the deterministic reductions above are the load-bearing checks).
	if resL.Elapsed*2 >= resU.Elapsed {
		t.Errorf("wall time not measurably reduced: labelled %v vs unlabelled %v", resL.Elapsed, resU.Elapsed)
	}
}

// TestPlanCacheLabelSignatures: fingerprints distinguish label signatures
// (no cross-label cache hits) while isomorphic labelled twins share one
// plan entry.
func TestPlanCacheLabelSignatures(t *testing.T) {
	lg := gen.ZipfLabels(gen.PowerLaw(300, 3, 3), 6, 1.6, 5)
	sys := huge.NewSystem(lg, huge.Options{Machines: 2, Workers: 1})
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	variants := []*huge.Query{
		huge.NewQuery("tri", edges),
		huge.NewLabeledQuery("tri-0", edges, []int{0, 0, 0}),
		huge.NewLabeledQuery("tri-1", edges, []int{1, 1, 1}),
		huge.NewLabeledQuery("tri-mixed", edges, []int{1, huge.AnyLabel, 0}),
	}
	for _, q := range variants {
		res, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		if res.PlanCached {
			t.Errorf("%s: unexpected cache hit across label signatures", q.Name())
		}
	}
	hits, misses, size := sys.PlanCacheStats()
	if hits != 0 || misses != uint64(len(variants)) || size != len(variants) {
		t.Fatalf("cache stats hits=%d misses=%d size=%d, want 0/%d/%d", hits, misses, size, len(variants), len(variants))
	}
	// An isomorphic labelled twin (vertices permuted, labels carried along)
	// reuses the cached plan.
	twin := huge.NewLabeledQuery("tri-mixed-twin", [][2]int{{2, 1}, {1, 0}, {0, 2}}, []int{0, huge.AnyLabel, 1})
	res, err := sys.Exec(context.Background(), twin, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !res.PlanCached {
		t.Error("isomorphic labelled twin missed the plan cache")
	}
}

// TestLabeledEnumerateAndPattern: streamed matches respect label
// constraints, and the pattern parser's ":<label>" syntax produces them.
func TestLabeledEnumerateAndPattern(t *testing.T) {
	lg := gen.ZipfLabels(gen.PowerLaw(300, 3, 19), 6, 1.6, 9)
	sys := huge.NewSystem(lg, huge.Options{Machines: 2, Workers: 1})
	q, names, err := huge.ParsePattern("labelled-wedge", "(a:1)-(b:0), (b:0)-(c:1)")
	if err != nil {
		t.Fatal(err)
	}
	if q.Label(names["a"]) != 1 || q.Label(names["b"]) != 0 || q.Label(names["c"]) != 1 {
		t.Fatalf("parsed labels wrong: %s", q)
	}
	var bad atomic.Int64
	res, err := sys.Exec(context.Background(), q, huge.OnMatch(func(m []huge.VertexID) {
		for v, c := range m {
			if l := q.Label(v); l >= 0 && int(lg.Label(c)) != l {
				bad.Add(1)
			}
		}
	})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if n := bad.Load(); n != 0 {
		t.Errorf("%d streamed assignments violate label constraints", n)
	}
	if want := baseline.GroundTruthCount(lg, q); res.Count != want {
		t.Errorf("enumerate count %d, oracle %d", res.Count, want)
	}
	// Inconsistent labels on one vertex are rejected.
	if _, _, err := huge.ParsePattern("bad", "(a:1)-(b), (b)-(a:2)"); err == nil {
		t.Error("conflicting labels accepted")
	}
}
