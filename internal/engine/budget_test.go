package engine

import (
	"context"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// TestEngineBudgetExactCount: with a k-slot budget the engine must report
// exactly min(k, total) matches — across the catalog, with the compressed
// counting path on and off, and with a materialising OnResult consumer that
// must see exactly the counted rows.
func TestEngineBudgetExactCount(t *testing.T) {
	g := testGraph()
	ccfg := cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}
	for _, q := range query.Catalog() {
		want := baseline.GroundTruthCount(g, q)
		df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []uint64{0, 1, 3, want, want + 10} {
			wantK := min(k, want)
			for _, compress := range []bool{true, false} {
				ex := cluster.New(g, ccfg).NewExec()
				got, err := Run(context.Background(), ex, df, Config{
					BatchRows: 64, QueueRows: 256, Compress: compress, Budget: NewBudget(k),
				})
				if err != nil {
					t.Fatalf("%s k=%d compress=%v: %v", q.Name(), k, compress, err)
				}
				if got != wantK {
					t.Errorf("%s k=%d compress=%v: count %d, want %d", q.Name(), k, compress, got, wantK)
				}
				if live := ex.Metrics.LiveTuples(); live != 0 {
					t.Errorf("%s k=%d: live tuples %d after early stop, want 0", q.Name(), k, live)
				}
			}
			// Materialising consumer: emitted rows == counted rows == min(k, total).
			var emitted atomic.Uint64
			ex := cluster.New(g, ccfg).NewExec()
			got, err := Run(context.Background(), ex, df, Config{
				BatchRows: 64, QueueRows: 256, Budget: NewBudget(k),
				OnResult: func([]graph.VertexID) { emitted.Add(1) },
			})
			if err != nil {
				t.Fatalf("%s k=%d OnResult: %v", q.Name(), k, err)
			}
			if got != wantK || emitted.Load() != wantK {
				t.Errorf("%s k=%d OnResult: count %d, emitted %d, want %d",
					q.Name(), k, got, emitted.Load(), wantK)
			}
		}
	}
}

// TestEngineBudgetMultiStage: a budget exhausted in the final stage of a
// PUSH-JOIN plan must still drain cleanly — live tuples back to zero, spill
// files removed — and skip any stage the early stop makes unreachable.
func TestEngineBudgetMultiStage(t *testing.T) {
	g := testGraph()
	q := query.Q7()
	p := plan.SEEDPlan(q, plan.MomentEstimator(plan.ComputeStats(g))) // pushing hash joins
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatal(err)
	}
	want := baseline.GroundTruthCount(g, q)
	spillsBefore := countSpillFiles(t)
	for _, k := range []uint64{1, 7, want + 1} {
		ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
		got, err := Run(context.Background(), ex, df, Config{
			BatchRows: 32, QueueRows: 128, JoinBufferRows: 16, Budget: NewBudget(k),
		})
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if wantK := min(k, want); got != wantK {
			t.Errorf("k=%d: count %d, want %d", k, got, wantK)
		}
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Errorf("k=%d: live tuples %d, want 0", k, live)
		}
	}
	if after := countSpillFiles(t); after > spillsBefore {
		t.Fatalf("spill files leaked: %d before, %d after", spillsBefore, after)
	}
}

// TestEngineBudgetSharedAcrossRuns: one budget spanning several runs (the
// delta-mode shape) is claimed across them in order, totalling min(k, sum).
func TestEngineBudgetSharedAcrossRuns(t *testing.T) {
	g := testGraph()
	q := query.Triangle()
	want := baseline.GroundTruthCount(g, q)
	if want < 2 {
		t.Skip("graph has too few triangles to split a budget")
	}
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	bud := NewBudget(want + 3)
	var total uint64
	for i := 0; i < 2; i++ {
		got, err := Run(context.Background(), cl.NewExec(), df, Config{
			BatchRows: 64, QueueRows: 256, Budget: bud,
		})
		if err != nil {
			t.Fatal(err)
		}
		total += got
	}
	// First run claims `want`, second is capped by the 3 remaining slots.
	if total != want+3 {
		t.Errorf("shared budget total %d, want %d", total, want+3)
	}
}
