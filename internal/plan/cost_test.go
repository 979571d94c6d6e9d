package plan_test

import (
	"testing"

	"repro/gpm"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/query"
)

// TestOptimizeNeverCostlierThanWco is the invariant that keeps the
// optimiser honest about what it executes: the left-deep wco plan is inside
// Algorithm 1's search space (every one of its joins is a complete star
// join, which Equation 3 makes pulling), so under the one cost function
// both are priced with, the optimum can never cost more. Where the two
// tie, TestOptimizePinnedPlans pins which plan runs.
func TestOptimizeNeverCostlierThanWco(t *testing.T) {
	patterns := append(query.Catalog(), query.Triangle())
	for k := 3; k <= 5; k++ {
		patterns = append(patterns, gpm.ConnectedPatterns(k)...)
	}
	for _, ds := range []string{"LJ", "OR", "EU"} {
		g := gen.ByName(ds, 1)
		stats := plan.ComputeStats(g)
		for _, machines := range []int{1, 2} {
			cfg := plan.Config{NumMachines: machines, GraphEdges: float64(g.NumEdges()), Card: plan.MomentEstimator(stats)}
			for _, q := range patterns {
				opt := plan.Optimize(q, cfg)
				wco := plan.CostOf(plan.HugeWcoPlanStats(q, stats), cfg)
				if opt.Cost > wco*(1+1e-12) {
					t.Errorf("%s %s k=%d: optimal plan costs %g, left-deep wco plan %g\n%s", ds, q.Name(), machines, opt.Cost, wco, opt)
				}
			}
		}
	}
}
