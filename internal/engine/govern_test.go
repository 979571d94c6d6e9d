package engine

// Tests of the engine-level governance hooks: the per-run memory budget
// (cooperative ErrMemoryBudget fast-fail with full cleanup) and the
// adaptive batch-sizing controller.

import (
	"context"
	"errors"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/query"
)

// governTestRun executes q1 on a power-law graph with the given config and
// returns the error plus the execution context for metric assertions.
func governTestRun(t *testing.T, cfg Config) (*cluster.Exec, error) {
	t.Helper()
	g := gen.PowerLaw(2000, 6, 21)
	df, err := plan.Translate(plan.HugeWcoPlanStats(query.Q1(), plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	_, runErr := Run(context.Background(), ex, df, cfg)
	return ex, runErr
}

// TestMemBudgetFastFail: a run whose intermediate state exceeds
// MemBudgetRows must fail with ErrMemoryBudget (identifiable through
// errors.Is across the stage-error wrapping) and release every queued
// batch — live tuples return to zero, so pooled storage is recycled.
func TestMemBudgetFastFail(t *testing.T) {
	ex, err := governTestRun(t, Config{BatchRows: 256, QueueRows: -1, MemBudgetRows: 200})
	if !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	if live := ex.Metrics.LiveTuples(); live != 0 {
		t.Errorf("live tuples after budget failure = %d, want 0 (batches not released)", live)
	}
}

// TestMemBudgetGenerousPasses: the same run under a generous budget must
// complete and agree with the unbudgeted count.
func TestMemBudgetGenerousPasses(t *testing.T) {
	exFree, err := governTestRun(t, Config{BatchRows: 256, QueueRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := exFree.Metrics.Results.Load()
	exBudget, err := governTestRun(t, Config{BatchRows: 256, QueueRows: -1, MemBudgetRows: 1 << 30})
	if err != nil {
		t.Fatalf("generous budget failed: %v", err)
	}
	if got := exBudget.Metrics.Results.Load(); got != want {
		t.Errorf("count under generous budget = %d, want %d", got, want)
	}
}

// TestMemBudgetBoundsPeak: the fast-fail must trip near the budget — peak
// tuples stay within the budget plus one batch's expansion per machine
// (the documented overshoot bound, with expansion capped by the max
// degree), not at some multiple of it.
func TestMemBudgetBoundsPeak(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 21)
	maxDeg := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := len(g.Neighbors(uint32(v))); d > maxDeg {
			maxDeg = d
		}
	}
	const budget, batch, machines = 2000, 64, 2
	df, err := plan.Translate(plan.HugeWcoPlanStats(query.Q1(), plan.GraphStats{}))
	if err != nil {
		t.Fatal(err)
	}
	ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: 2, CacheKind: cache.LRBU}).NewExec()
	if _, err := Run(context.Background(), ex, df, Config{
		BatchRows: batch, QueueRows: -1, MemBudgetRows: budget,
	}); !errors.Is(err, ErrMemoryBudget) {
		t.Fatalf("err = %v, want ErrMemoryBudget", err)
	}
	slack := int64(machines * batch * maxDeg)
	if peak := ex.Metrics.PeakTuples(); peak > budget+slack {
		t.Errorf("peak tuples %d exceed budget %d + one-batch slack %d", peak, budget, slack)
	}
}

// TestAdaptiveBatchGrows: with shallow (unbounded) queues the controller
// must start at the 64-row floor and grow towards BatchRows, recording its
// decisions in the run metrics.
func TestAdaptiveBatchGrows(t *testing.T) {
	ex, err := governTestRun(t, Config{BatchRows: 4096, QueueRows: -1, AdaptiveBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	m := ex.Metrics
	if m.BatchGrows.Load() == 0 {
		t.Error("no grow decisions recorded under shallow queues")
	}
	if last := m.BatchRowsLast.Load(); last <= minAdaptiveBatchRows {
		t.Errorf("final batch size %d never grew past the %d-row floor", last, minAdaptiveBatchRows)
	}
	// The count must not depend on batch sizing.
	exFixed, err := governTestRun(t, Config{BatchRows: 4096, QueueRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if a, b := m.Results.Load(), exFixed.Metrics.Results.Load(); a != b {
		t.Errorf("adaptive count %d != fixed count %d", a, b)
	}
}

// TestAdaptiveBatchShrinksUnderPressure: with a queue capacity the workload
// keeps full, the controller must record shrink decisions and hold the
// size at (or return it to) the floor rather than growing unboundedly.
func TestAdaptiveBatchShrinksUnderPressure(t *testing.T) {
	// Tight queues (256 rows) on an expanding workload: the source fills
	// its output faster than the extends drain it, so depth*2 >= capacity
	// holds at most sizing decisions.
	ex, err := governTestRun(t, Config{BatchRows: 4096, QueueRows: 256, AdaptiveBatch: true})
	if err != nil {
		t.Fatal(err)
	}
	m := ex.Metrics
	if m.BatchShrinks.Load() == 0 && m.BatchRowsLast.Load() > minAdaptiveBatchRows {
		t.Errorf("no shrink decisions and final size %d above the floor under full queues",
			m.BatchRowsLast.Load())
	}
}
