package engine

import (
	"context"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/query"
)

// TestDeltaScanPinnedCounts runs the difference-rewritten dataflows with a
// pinned edge set directly through the engine and checks the summed counts
// against the ground-truth pinned oracle — the engine-level contract the
// serving layer's delta mode is built on. Both compressed and
// materialising paths are exercised.
func TestDeltaScanPinnedCounts(t *testing.T) {
	g := gen.PowerLaw(300, 3, 9)
	// Pin a random subset of existing edges (the oracle does not care
	// whether they were inserted or deleted — only membership matters).
	set := randomPinned(g, 17)
	cl := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2})
	for _, q := range []*query.Query{query.Triangle(), query.Q1(), query.Q2(), query.Q4()} {
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			t.Fatalf("%s: %v", q.Name(), err)
		}
		want := baseline.GroundTruthPinnedCount(g, q, set)
		for _, compress := range []bool{true, false} {
			var got uint64
			for _, df := range flows {
				n, err := Run(context.Background(), cl.NewExec(), df, Config{
					BatchRows: 256, QueueRows: 1 << 14,
					Compress: compress, DeltaEdges: set,
				})
				if err != nil {
					t.Fatalf("%s: %v", q.Name(), err)
				}
				got += n
			}
			if got != want {
				t.Fatalf("%s (compress=%v): pinned count %d, oracle %d", q.Name(), compress, got, want)
			}
		}
	}
	// An empty (nil) pinned set yields zero matches.
	flows, _ := plan.TranslateDelta(query.Triangle())
	for _, df := range flows {
		n, err := Run(context.Background(), cl.NewExec(), df, Config{BatchRows: 256, QueueRows: 1 << 14})
		if err != nil || n != 0 {
			t.Fatalf("nil pinned set: n=%d err=%v", n, err)
		}
	}
}
