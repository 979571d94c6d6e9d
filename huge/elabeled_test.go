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
	"repro/internal/metrics"
	"repro/internal/query"
)

// uniformEdgeLabels attaches the single edge label l to every edge of g.
func uniformEdgeLabels(g *huge.Graph, l huge.LabelID) *huge.Graph {
	return huge.WithEdgeLabels(g, func(u, v huge.VertexID) huge.LabelID { return l })
}

// constrainAllEdges constrains every edge of q to label l.
func constrainAllEdges(q *huge.Query, l int) *huge.Query {
	elabels := make([]int, q.NumEdges())
	for i := range elabels {
		elabels[i] = l
	}
	return q.WithEdgeLabels(elabels)
}

// TestEdgeLabeledUniformMatchesUnlabeled is the differential property
// test: on a graph whose every edge carries one uniform edge label, every
// query constrained to that label must return exactly its unlabelled count
// — engine vs the ground-truth oracle — for the triangle, q1–q8, and every
// 4-vertex gpm pattern, on both a plain and a vertex-labelled data graph.
func TestEdgeLabeledUniformMatchesUnlabeled(t *testing.T) {
	base := gen.PowerLaw(320, 3, 19)
	vlabelled := huge.WithLabels(base, make([]huge.LabelID, base.NumVertices()))
	const uniform = 3 // non-zero so the implicit-label-0 shortcuts cannot mask a bug
	for _, tc := range []struct {
		name  string
		plain *huge.Graph
	}{
		{"plain", base},
		{"vertex-labelled", vlabelled},
	} {
		eg := uniformEdgeLabels(tc.plain, uniform)
		sysU := huge.NewSystem(tc.plain, huge.Options{Machines: 3, Workers: 2})
		sysE := huge.NewSystem(eg, huge.Options{Machines: 3, Workers: 2})
		queries := append([]*huge.Query{huge.Triangle()}, query.Catalog()...)
		queries = append(queries, gpm.ConnectedPatterns(4)...)
		for _, q := range queries {
			lq := constrainAllEdges(q, uniform)
			want := baseline.GroundTruthCount(tc.plain, q)
			if got := baseline.GroundTruthCount(eg, lq); got != want {
				t.Fatalf("%s/%s: edge-labelled oracle %d, unlabelled oracle %d", tc.name, q.Name(), got, want)
			}
			resU, err := sysU.Exec(context.Background(), q, huge.CountOnly()).Wait()
			if err != nil {
				t.Fatalf("%s/%s unlabelled: %v", tc.name, q.Name(), err)
			}
			resE, err := sysE.Exec(context.Background(), lq, huge.CountOnly()).Wait()
			if err != nil {
				t.Fatalf("%s/%s edge-labelled: %v", tc.name, q.Name(), err)
			}
			if resU.Count != want || resE.Count != want {
				t.Errorf("%s/%s: unlabelled %d, edge-labelled %d, oracle %d",
					tc.name, q.Name(), resU.Count, resE.Count, want)
			}
		}
	}
}

// TestEdgeLabeledEngineMatchesOracle cross-checks mixed vertex- and
// edge-label signatures on a Zipf-labelled graph, with the compressed
// counting path on (the default) and off, and the baseline executors too.
func TestEdgeLabeledEngineMatchesOracle(t *testing.T) {
	lg := gen.ZipfEdgeLabels(gen.ZipfLabels(gen.PowerLaw(500, 3, 31), 6, 1.7, 13), 5, 1.7, 14)
	rng := rand.New(rand.NewSource(47))
	sys := huge.NewSystem(lg, huge.Options{Machines: 3, Workers: 2})
	sysNC := huge.NewSystem(lg, huge.Options{Machines: 2, Workers: 2})
	for _, q := range append(query.Catalog(), query.Triangle()) {
		vlabels := make([]int, q.NumVertices())
		for v := range vlabels {
			if rng.Intn(2) == 0 {
				vlabels[v] = huge.AnyLabel
			} else {
				vlabels[v] = rng.Intn(3)
			}
		}
		elabels := make([]int, q.NumEdges())
		for i := range elabels {
			switch rng.Intn(3) {
			case 0:
				elabels[i] = huge.AnyLabel
			case 1:
				elabels[i] = 0 // frequent head
			default:
				elabels[i] = 1 + rng.Intn(2)
			}
		}
		lq := q.WithVertexLabels(vlabels).WithEdgeLabels(elabels)
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

// TestEdgeLabeledBaselinesMatchOracle keeps every baseline executor
// cross-checked on edge-labelled workloads.
func TestEdgeLabeledBaselinesMatchOracle(t *testing.T) {
	lg := gen.ZipfEdgeLabels(gen.PowerLaw(300, 3, 37), 4, 1.7, 15)
	q := huge.Triangle().WithEdgeLabels([]int{0, 0, 1})
	want := baseline.GroundTruthCount(lg, q)
	if got := baseline.RunBENU(lg, q, baseline.BENUConfig{NumMachines: 2, Workers: 2, CacheBytes: 1 << 16}, &metrics.Metrics{}); got != want {
		t.Errorf("BENU: %d, oracle %d", got, want)
	}
	if got, err := baseline.RunBiGJoin(lg, q, baseline.BiGJoinConfig{NumMachines: 2}, &metrics.Metrics{}); err != nil || got != want {
		t.Errorf("BiGJoin: %d (%v), oracle %d", got, err, want)
	}
	if got, err := baseline.RunRADS(lg, q, baseline.RADSConfig{NumMachines: 2, CacheBytes: 1 << 16}, &metrics.Metrics{}); err != nil || got != want {
		t.Errorf("RADS: %d (%v), oracle %d", got, err, want)
	}
	if got, err := baseline.RunSEED(lg, q, baseline.SEEDConfig{NumMachines: 2}, &metrics.Metrics{}); err != nil || got != want {
		t.Errorf("SEED: %d (%v), oracle %d", got, err, want)
	}
}

// TestEdgeLabeledPlanCacheSeparation is the acceptance check on cache
// identity: an edge-labelled query never shares a plan-cache entry with
// its unlabelled twin (distinct fingerprints, a cold miss each), while
// repeats of either signature hit their own entry.
func TestEdgeLabeledPlanCacheSeparation(t *testing.T) {
	g := uniformEdgeLabels(gen.PowerLaw(300, 3, 41), 0)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 1})
	q := huge.Q1()
	lq := constrainAllEdges(huge.Q1(), 0)
	if q.Fingerprint() == lq.Fingerprint() {
		t.Fatal("edge-labelled twin shares the unlabelled fingerprint")
	}
	r1, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := sys.Exec(context.Background(), lq, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if r1.PlanCached || r2.PlanCached {
		t.Errorf("cold runs served from cache: unlabelled=%v edge-labelled=%v", r1.PlanCached, r2.PlanCached)
	}
	if r1.Count != r2.Count {
		t.Errorf("uniform label-0 constraint changed the count: %d vs %d", r1.Count, r2.Count)
	}
	r3, err := sys.Exec(context.Background(), lq, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !r3.PlanCached {
		t.Errorf("repeat of the edge-labelled query missed its own cache entry")
	}
	hits, misses, size := sys.PlanCacheStats()
	if size != 2 {
		t.Errorf("plan cache holds %d entries, want 2 (hits %d, misses %d)", size, hits, misses)
	}
}

// TestEdgeLabelChurnDeltaIdentity: full(t) + Delta == full(t+1) across
// Apply batches that insert, delete, and relabel edges, for edge-labelled
// and unlabelled queries on an edge-labelled graph — the Berkholz-style
// difference rewriting stays exact when the update stream carries labels.
func TestEdgeLabelChurnDeltaIdentity(t *testing.T) {
	g := gen.ZipfEdgeLabels(gen.PowerLaw(350, 3, 53), 4, 1.7, 17)
	stream := gen.EdgeLabeledUpdateStream(g, 120, 4, 18)
	rel := 0
	for _, op := range stream {
		if op.Rel {
			rel++
		}
	}
	if rel == 0 {
		t.Fatal("stream carries no relabels; the test would not exercise churn")
	}
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	queries := []*huge.Query{
		huge.Triangle(),
		constrainAllEdges(huge.Triangle(), 0),
		huge.Q1().WithEdgeLabels([]int{0, huge.AnyLabel, 1, huge.AnyLabel}),
	}
	counts := make([]uint64, len(queries))
	for i, q := range queries {
		res, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		counts[i] = res.Count
	}
	for lo := 0; lo < len(stream); lo += 40 {
		hi := min(lo+40, len(stream))
		var d huge.Delta
		for _, op := range stream[lo:hi] {
			switch {
			case op.Del:
				d.Delete = append(d.Delete, [2]huge.VertexID{op.U, op.V})
			case op.Rel:
				d.Relabel = append(d.Relabel, huge.EdgeLabel{U: op.U, V: op.V, L: op.L})
			default:
				d.Insert = append(d.Insert, [2]huge.VertexID{op.U, op.V})
				d.InsertLabels = append(d.InsertLabels, op.L)
			}
		}
		sys.Apply(d)
		for i, q := range queries {
			dres, err := sys.Exec(context.Background(), q.Delta(), huge.CountOnly()).Wait()
			if err != nil {
				t.Fatalf("%s delta: %v", q, err)
			}
			full, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
			if err != nil {
				t.Fatalf("%s full: %v", q, err)
			}
			if want := baseline.GroundTruthCount(sys.Graph(), q); full.Count != want {
				t.Fatalf("%s: full count %d, oracle %d", q, full.Count, want)
			}
			maintained := int64(counts[i]) + dres.Delta
			if maintained != int64(full.Count) {
				t.Fatalf("%s: full(t)+Delta = %d, full(t+1) = %d (delta %+d new %d dead %d)",
					q, maintained, full.Count, dres.Delta, dres.DeltaNew, dres.DeltaDead)
			}
			counts[i] = full.Count
		}
	}
}
