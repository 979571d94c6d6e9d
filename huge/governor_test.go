package huge_test

// Tests of the serving-layer resource governor: priority-ordered
// admission, queue and memory shedding (typed ErrOverloaded fast-fail),
// per-run memory budgets surfacing as ErrMemoryBudget through Exec, the
// ErrInvalidOption taxonomy, and the adaptive-batch counters in
// GovernorStats.

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/huge"
	"repro/internal/gen"
)

// governedSystem builds a 2x2 system over a mid-size power-law graph with
// the given governor config and unbounded (BFS) queues, so intermediate
// state grows fast enough to exercise memory governance.
func governedSystem(g *huge.Graph, cfg *huge.GovernorConfig) *huge.System {
	return huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2, QueueRows: -1, Governor: cfg})
}

// waitStats polls GovernorStats until pred holds or the deadline passes.
func waitStats(t *testing.T, sys *huge.System, what string, pred func(huge.GovernanceSummary) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred(sys.GovernorStats()) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s (stats %+v)", what, sys.GovernorStats())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGovernorPriorityOrdering: with one run slot held by a blocker, a
// high-priority request queued after a low-priority one must be granted
// the slot first.
func TestGovernorPriorityOrdering(t *testing.T) {
	sys := governedSystem(gen.PowerLaw(2000, 6, 13), &huge.GovernorConfig{MaxConcurrent: 1})
	ctx := context.Background()

	// The blocker holds the only slot: a streaming run nobody consumes
	// blocks on its match channel until Close.
	blocker := sys.Exec(ctx, huge.Q1())
	waitStats(t, sys, "blocker admitted", func(s huge.GovernanceSummary) bool { return s.Running == 1 })

	// Grant order is observed through each run's first match callback.
	var mu sync.Mutex
	var order []string
	mark := func(label string) huge.Option {
		var once sync.Once
		return huge.OnMatch(func([]huge.VertexID) {
			once.Do(func() {
				mu.Lock()
				order = append(order, label)
				mu.Unlock()
			})
		})
	}
	low := sys.Exec(ctx, huge.Q1(), huge.Priority(-1), mark("low"))
	waitStats(t, sys, "low queued", func(s huge.GovernanceSummary) bool { return s.Waiting == 1 })
	high := sys.Exec(ctx, huge.Q1(), huge.Priority(1), mark("high"))
	waitStats(t, sys, "high queued", func(s huge.GovernanceSummary) bool { return s.Waiting == 2 })

	blocker.Close()
	if _, err := high.Wait(); err != nil {
		t.Fatalf("high-priority run failed: %v", err)
	}
	if _, err := low.Wait(); err != nil {
		t.Fatalf("low-priority run failed: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "high" {
		t.Errorf("grant order = %v, want high before low", order)
	}
	if s := sys.GovernorStats(); s.Waited != 2 {
		t.Errorf("Waited = %d, want 2", s.Waited)
	}
}

// TestGovernorQueueShedding: with queueing disabled (MaxQueued < 0), any
// request arriving while the slots are busy must fast-fail with
// ErrOverloaded — and the shed must be visible in the stats.
func TestGovernorQueueShedding(t *testing.T) {
	sys := governedSystem(gen.PowerLaw(2000, 6, 13), &huge.GovernorConfig{MaxConcurrent: 1, MaxQueued: -1})
	ctx := context.Background()

	blocker := sys.Exec(ctx, huge.Q1())
	waitStats(t, sys, "blocker admitted", func(s huge.GovernanceSummary) bool { return s.Running == 1 })

	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly()).Wait(); !errors.Is(err, huge.ErrOverloaded) {
		t.Errorf("err = %v, want ErrOverloaded", err)
	}
	if s := sys.GovernorStats(); s.ShedQueue == 0 {
		t.Errorf("ShedQueue = 0 after a shed, stats %+v", s)
	}
	if _, err := blocker.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("blocker close: %v", err)
	}
	// A retry after the load clears must succeed: shedding is fast-fail,
	// not a terminal system state.
	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly()).Wait(); err != nil {
		t.Errorf("post-shed retry failed: %v", err)
	}
}

// TestGovernorQueueDisplacement: with the queue at capacity, a
// higher-priority arrival must displace the lowest-priority waiter (which
// sheds with ErrOverloaded) and take its place, while an equal-priority
// arrival sheds itself.
func TestGovernorQueueDisplacement(t *testing.T) {
	sys := governedSystem(gen.PowerLaw(2000, 6, 13), &huge.GovernorConfig{MaxConcurrent: 1, MaxQueued: 1})
	ctx := context.Background()

	blocker := sys.Exec(ctx, huge.Q1())
	waitStats(t, sys, "blocker admitted", func(s huge.GovernanceSummary) bool { return s.Running == 1 })

	low := sys.Exec(ctx, huge.Q1(), huge.CountOnly(), huge.Priority(-1))
	waitStats(t, sys, "low queued", func(s huge.GovernanceSummary) bool { return s.Waiting == 1 })

	// Equal priority cannot displace: the arrival sheds, the waiter stays.
	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly(), huge.Priority(-1)).Wait(); !errors.Is(err, huge.ErrOverloaded) {
		t.Errorf("equal-priority arrival: err = %v, want ErrOverloaded", err)
	}

	// Higher priority displaces the waiter and inherits the queue slot.
	high := sys.Exec(ctx, huge.Triangle(), huge.CountOnly(), huge.Priority(5))
	if _, err := low.Wait(); !errors.Is(err, huge.ErrOverloaded) {
		t.Errorf("displaced waiter: err = %v, want ErrOverloaded", err)
	}
	if _, err := blocker.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("blocker close: %v", err)
	}
	if _, err := high.Wait(); err != nil {
		t.Errorf("displacing arrival failed: %v", err)
	}
	if s := sys.GovernorStats(); s.ShedQueue < 2 {
		t.Errorf("ShedQueue = %d, want >= 2 (one self-shed, one displacement)", s.ShedQueue)
	}
}

// TestGovernorExpressLane: with every normal slot held and queueing
// disabled, a high-priority arrival must still run immediately through a
// reserved express slot, while a default-priority arrival sheds.
func TestGovernorExpressLane(t *testing.T) {
	sys := governedSystem(gen.PowerLaw(2000, 6, 13), &huge.GovernorConfig{
		MaxConcurrent: 1, MaxQueued: -1, ExpressSlots: 1,
	})
	ctx := context.Background()

	blocker := sys.Exec(ctx, huge.Q1())
	waitStats(t, sys, "blocker admitted", func(s huge.GovernanceSummary) bool { return s.Running == 1 })

	// Default priority: below the lane's threshold, sheds at the full gate.
	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly()).Wait(); !errors.Is(err, huge.ErrOverloaded) {
		t.Errorf("default-priority arrival: err = %v, want ErrOverloaded", err)
	}
	// High priority: claims the express slot and completes with the normal
	// slot still held.
	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly(), huge.Priority(5)).Wait(); err != nil {
		t.Errorf("express-lane run failed: %v", err)
	}
	if s := sys.GovernorStats(); s.Running != 1 {
		t.Errorf("Running = %d after the express run drained, want 1 (the blocker)", s.Running)
	}
	if _, err := blocker.Close(); err != nil && !errors.Is(err, context.Canceled) {
		t.Errorf("blocker close: %v", err)
	}
}

// TestGovernorVictimShedding: a run that drives the global memory gauge
// over its envelope must be cancelled by the governor and surface as
// ErrOverloaded, with the victim counted and all of its tuples released.
func TestGovernorVictimShedding(t *testing.T) {
	sys := governedSystem(gen.PowerLaw(5000, 8, 17), &huge.GovernorConfig{
		MaxConcurrent: 4, GlobalMemoryRows: 500,
	})
	_, err := sys.Exec(context.Background(), huge.Q1(), huge.CountOnly()).Wait()
	if !errors.Is(err, huge.ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded (victim shed)", err)
	}
	s := sys.GovernorStats()
	if s.Victims == 0 {
		t.Errorf("Victims = 0 after a victim shed, stats %+v", s)
	}
	if s.GlobalLive != 0 {
		t.Errorf("GlobalLive = %d after the shed run drained, want 0", s.GlobalLive)
	}
	if s.GlobalPeak <= 500 {
		t.Errorf("GlobalPeak = %d never crossed the 500-row envelope", s.GlobalPeak)
	}
}

// TestMemoryBudgetThroughExec: the per-run budget — governed default and
// explicit option — must surface as ErrMemoryBudget, and MemoryBudget(0)
// must lift the governed default.
func TestMemoryBudgetThroughExec(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 21)
	ctx := context.Background()

	governed := governedSystem(g, &huge.GovernorConfig{MaxConcurrent: 4, RunMemoryRows: 200})
	if _, err := governed.Exec(ctx, huge.Q1(), huge.CountOnly()).Wait(); !errors.Is(err, huge.ErrMemoryBudget) {
		t.Errorf("governed default budget: err = %v, want ErrMemoryBudget", err)
	}
	if s := governed.GovernorStats(); s.MemBudgetFails == 0 {
		t.Errorf("MemBudgetFails = 0 after a budget failure, stats %+v", s)
	}
	if _, err := governed.Exec(ctx, huge.Q1(), huge.CountOnly(), huge.MemoryBudget(0)).Wait(); err != nil {
		t.Errorf("MemoryBudget(0) should lift the governed default, got %v", err)
	}

	// The option works without a governor too.
	plain := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2, QueueRows: -1})
	if _, err := plain.Exec(ctx, huge.Q1(), huge.CountOnly(), huge.MemoryBudget(200)).Wait(); !errors.Is(err, huge.ErrMemoryBudget) {
		t.Errorf("ungoverned MemoryBudget: err = %v, want ErrMemoryBudget", err)
	}
}

// TestErrInvalidOptionTaxonomy: every option-misuse path must wear the
// ErrInvalidOption sentinel, detectable with errors.Is.
func TestErrInvalidOptionTaxonomy(t *testing.T) {
	g := gen.PowerLaw(200, 3, 7)
	sys := huge.NewSystem(g, huge.Options{})
	ctx := context.Background()
	noop := func([]huge.VertexID) {}
	cases := []struct {
		name string
		st   *huge.Stream
	}{
		{"negative limit", sys.Exec(ctx, huge.Triangle(), huge.Limit(-1))},
		{"negative memory budget", sys.Exec(ctx, huge.Triangle(), huge.MemoryBudget(-1))},
		{"count+onmatch", sys.Exec(ctx, huge.Triangle(), huge.CountOnly(), huge.OnMatch(noop))},
		{"histogram without groupby", sys.Exec(ctx, huge.Triangle(), huge.Histogram(4))},
		{"nil query", sys.Exec(ctx, nil)},
		{"nil plan", sys.Exec(ctx, huge.Triangle(), huge.WithPlan(nil))},
		{"delta with plan", sys.Exec(ctx, huge.Triangle().Delta(), huge.WithPlan(sys.Plan(huge.Triangle())))},
	}
	for _, tc := range cases {
		if _, err := tc.st.Wait(); !errors.Is(err, huge.ErrInvalidOption) {
			t.Errorf("%s: err = %v, want ErrInvalidOption", tc.name, err)
		}
	}
	// A valid call must NOT carry the sentinel.
	if _, err := sys.Exec(ctx, huge.Triangle(), huge.CountOnly()).Wait(); err != nil {
		t.Errorf("valid call failed: %v", err)
	}
}

// TestGovernedAdaptiveBatchCounters: a governed run on shallow queues must
// record grow decisions both in its own Summary and in the system-wide
// GovernorStats.
func TestGovernedAdaptiveBatchCounters(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 13)
	sys := governedSystem(g, &huge.GovernorConfig{MaxConcurrent: 4})
	res, err := sys.Exec(context.Background(), huge.Q1(), huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Metrics.BatchGrows == 0 {
		t.Error("run Summary records no adaptive grow decisions")
	}
	if s := sys.GovernorStats(); s.BatchGrows == 0 {
		t.Errorf("GovernorStats.BatchGrows = 0, stats %+v", s)
	}

	// Priority on an ungoverned system is accepted and ignored.
	plain := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	if _, err := plain.Exec(context.Background(), huge.Triangle(), huge.CountOnly(), huge.Priority(7)).Wait(); err != nil {
		t.Errorf("Priority on ungoverned system: %v", err)
	}
}
