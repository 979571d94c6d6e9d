package engine

// The PUSH-JOIN differential suite: the counting join sink, the
// materialising join and the ground-truth enumerator must agree across
// cluster sizes and join-buffer sizes (in memory, a few runs, hundreds of
// runs), and the counting sink must honour the match budget, the memory
// budget and cancellation exactly as the batch path does. Run under
// -race -count=10 in CI: two feeder machines shuffle into every Relation.

import (
	"context"
	"errors"
	"os"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// pushJoinCase is one (graph, query, plan) whose dataflow ends in a
// PUSH-JOIN stage followed directly by the SINK.
type pushJoinCase struct {
	name string
	g    *graph.Graph
	q    *query.Query
	df   *dataflow.Dataflow
}

// newPushJoinCase translates p and insists it ends in PUSH-JOIN -> SINK.
func newPushJoinCase(t *testing.T, name string, g *graph.Graph, p *plan.Plan) pushJoinCase {
	t.Helper()
	df, err := plan.Translate(p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	last := df.Stages[len(df.Stages)-1]
	if last.JoinSrc == nil || len(last.Extends) != 0 {
		t.Fatalf("%s: plan does not end in PUSH-JOIN -> SINK:\n%v", name, df)
	}
	return pushJoinCase{name, g, p.Q, df}
}

// hybridQ7 is the plan the cluster benchmark runs — Exp-9's 3-path ⋈ 2-path
// — on a road graph, with its ground-truth count. By edge mask of the path
// v0-..-v5: (star(v1; v0,v2) wco-pulling-joined with edge v2-v3)
// pushing-hash-joined with star(v4; v3,v5).
func hybridQ7(t *testing.T) (pushJoinCase, uint64) {
	t.Helper()
	p := &plan.Plan{Q: query.Q7(), Name: "q7-hybrid", Root: &plan.Node{
		Edges: 0b11111, Alg: plan.HashJoin, Comm: plan.Pushing,
		Left: &plan.Node{Edges: 0b00111, Alg: plan.WcoJoin, Comm: plan.Pulling,
			Left: &plan.Node{Edges: 0b00011}, Right: &plan.Node{Edges: 0b00100}},
		Right: &plan.Node{Edges: 0b11000},
	}}
	c := newPushJoinCase(t, "q7/hybrid", gen.Road(400, 0.02, 46), p)
	return c, baseline.GroundTruthCount(c.g, c.q)
}

// pushJoinCases: the hybrid q7 plan, and the SEED-family plans — every join
// a pushing hash join — of q7 on the same graph and of q1, q4 and q8 on a
// power-law graph.
func pushJoinCases(t *testing.T) []pushJoinCase {
	t.Helper()
	hybrid, _ := hybridQ7(t)
	cases := []pushJoinCase{hybrid}
	seed := func(g *graph.Graph, q *query.Query) {
		p := plan.SEEDPlan(q, plan.MomentEstimator(plan.ComputeStats(g)))
		cases = append(cases, newPushJoinCase(t, q.Name()+"/seed", g, p))
	}
	seed(hybrid.g, query.Q7()) // 5-paths of the power-law graph number in the millions
	skewed := testGraph()
	seed(skewed, query.Q1())
	seed(skewed, query.Q4())
	seed(skewed, query.Q8())
	return cases
}

// checkMatch verifies one delivered row against the data graph: every
// query edge present, vertices distinct, symmetry-breaking orders held.
func checkMatch(t *testing.T, c pushJoinCase, row []graph.VertexID) {
	t.Helper()
	layout := c.df.Stages[len(c.df.Stages)-1].OutputLayout()
	m := make([]graph.VertexID, c.q.NumVertices())
	for slot, qv := range layout {
		m[qv] = row[slot]
	}
	for _, e := range c.q.Edges() {
		if !c.g.HasEdge(m[e[0]], m[e[1]]) {
			t.Errorf("%s: row %v misses query edge %v", c.name, row, e)
		}
	}
	for a := range m {
		for b := a + 1; b < len(m); b++ {
			if m[a] == m[b] {
				t.Errorf("%s: row %v maps two query vertices to %d", c.name, row, m[a])
			}
		}
	}
	for _, o := range c.q.Orders() {
		if m[o.A] >= m[o.B] {
			t.Errorf("%s: row %v breaks order v%d < v%d", c.name, row, o.A, o.B)
		}
	}
}

// TestPushJoinCountingSinkDifferential: counting join sink == materialised
// join (every row a verified match, no row twice) == ground truth.
func TestPushJoinCountingSinkDifferential(t *testing.T) {
	for _, c := range pushJoinCases(t) {
		want := baseline.GroundTruthCount(c.g, c.q)
		if want == 0 {
			t.Fatalf("%s: no matches to join", c.name)
		}
		for _, machines := range []int{1, 2, 3} {
			cl := cluster.New(c.g, cluster.Config{NumMachines: machines, Workers: 2, CacheKind: cache.LRBU})
			for _, bufRows := range []int{7, 64, 0} {
				cfg := Config{BatchRows: 64, QueueRows: 256, JoinBufferRows: bufRows, Compress: true}
				ex := cl.NewExec()
				counted, err := Run(context.Background(), ex, c.df, cfg)
				if err != nil {
					t.Fatalf("%s k=%d buf=%d: %v", c.name, machines, bufRows, err)
				}
				if spilled := ex.Metrics.JoinSpillRuns.Load() > 0; spilled != (bufRows > 0) {
					t.Errorf("%s k=%d buf=%d: spilled = %v", c.name, machines, bufRows, spilled)
				}

				var mu sync.Mutex
				seen := map[[6]graph.VertexID]bool{} // no catalog query is wider
				cfg.OnResult = func(row []graph.VertexID) {
					mu.Lock()
					defer mu.Unlock()
					checkMatch(t, c, row)
					var key [6]graph.VertexID
					copy(key[:], row)
					if seen[key] {
						t.Errorf("%s: row %v delivered twice", c.name, row)
					}
					seen[key] = true
				}
				ex = cl.NewExec()
				delivered, err := Run(context.Background(), ex, c.df, cfg)
				if err != nil {
					t.Fatalf("%s k=%d buf=%d OnResult: %v", c.name, machines, bufRows, err)
				}
				if counted != want || delivered != want || uint64(len(seen)) != want {
					t.Errorf("%s k=%d buf=%d: counted %d, delivered %d (%d distinct), ground truth %d",
						c.name, machines, bufRows, counted, delivered, len(seen), want)
				}
				if live := ex.Metrics.LiveTuples(); live != 0 {
					t.Errorf("%s k=%d buf=%d: %d live tuples after the run", c.name, machines, bufRows, live)
				}
			}
		}
	}
}

// TestPushJoinCountingSinkBudget: the counting sink claims from a shared
// Budget like the batch sink — a budget smaller than the result is claimed
// exactly, across runs, and a run that finds it exhausted skips its stages.
func TestPushJoinCountingSinkBudget(t *testing.T) {
	c, want := hybridQ7(t)
	cl := cluster.New(c.g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	k := want + want/3
	bud := NewBudget(k)
	wantPerRun := []uint64{want, k - want, 0}
	for i, wantRun := range wantPerRun {
		ex := cl.NewExec()
		got, err := Run(context.Background(), ex, c.df, Config{
			BatchRows: 32, QueueRows: 1, JoinBufferRows: 64, Compress: true, Budget: bud,
		})
		if err != nil {
			t.Fatal(err)
		}
		if got != wantRun {
			t.Errorf("run %d: counted %d, want %d of the shared budget", i, got, wantRun)
		}
		if skipped := ex.Metrics.PeakTuples() == 0; skipped != (wantRun == 0) {
			t.Errorf("run %d: stages skipped = %v", i, skipped)
		}
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Errorf("run %d: %d live tuples after the run", i, live)
		}
	}
	if !bud.Exhausted() {
		t.Error("budget not exhausted after claiming all of it")
	}
}

// TestPushJoinMemBudgetInsideJoinStage: with unbounded queues the
// materialising join stage queues its whole output and a memory budget set
// between the feeders' peak and that fails the run inside the join stage;
// the counting sink queues nothing, so the same budget lets it finish.
// The cluster is one machine: on two, the join's peak depends on whether
// one machine drains its queued output before the other has queued all of
// its own, which varies with scheduling (81K to 140K tuples under CPU load,
// with or without stealing or a second worker); on one it is always all of
// the output plus the buffered inputs.
func TestPushJoinMemBudgetInsideJoinStage(t *testing.T) {
	c, want := hybridQ7(t)
	cl := cluster.New(c.g, cluster.Config{NumMachines: 1, Workers: 2, CacheKind: cache.LRBU})
	run := func(cfg Config) (uint64, int64, error) {
		cfg.BatchRows, cfg.QueueRows = 64, -1
		ex := cl.NewExec()
		n, err := Run(context.Background(), ex, c.df, cfg)
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Errorf("%d live tuples after the run (err = %v)", live, err)
		}
		return n, ex.Metrics.PeakTuples(), err
	}
	_, feedPeak, err := run(Config{Compress: true})
	if err != nil {
		t.Fatal(err)
	}
	_, joinPeak, err := run(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if joinPeak <= feedPeak+int64(want)/2 {
		t.Fatalf("materialised join peaked at %d tuples, counting at %d, for %d matches: no room for a budget between", joinPeak, feedPeak, want)
	}
	budget := (feedPeak + joinPeak) / 2
	if _, _, err := run(Config{MemBudgetRows: budget}); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("materialised join under %d rows: err = %v, want ErrMemoryBudget", budget, err)
	}
	if n, _, err := run(Config{MemBudgetRows: budget, Compress: true}); err != nil || n != want {
		t.Errorf("counting sink under %d rows: %d, %v; want %d", budget, n, err, want)
	}
	// A budget the buffered inputs alone exceed still fails a counting run —
	// in a feeder stage, where those rows become live.
	if _, _, err := run(Config{MemBudgetRows: feedPeak / 4, Compress: true}); !errors.Is(err, ErrMemoryBudget) {
		t.Errorf("counting sink under %d rows: err = %v, want ErrMemoryBudget", feedPeak/4, err)
	}
}

// countdownCtx reports cancellation from its n-th Err poll on — a
// deterministic stand-in for a cancel that lands at a chosen point of the
// run (the engine observes its context only through Err).
type countdownCtx struct {
	context.Context
	polls atomic.Int64
	after int64
}

func (c *countdownCtx) Err() error {
	if c.polls.Add(1) > c.after {
		return context.Canceled
	}
	return nil
}

// TestPushJoinCancelMidJoin: cancellation that lands inside the counting
// join stage returns ctx.Err(), releases every buffered row and leaves the
// spill directory empty.
func TestPushJoinCancelMidJoin(t *testing.T) {
	c, want := hybridQ7(t)
	spillDir := t.TempDir()
	t.Setenv("TMPDIR", spillDir)
	cl := cluster.New(c.g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	cfg := Config{BatchRows: 16, QueueRows: 64, JoinBufferRows: 32, Compress: true}
	whole := &countdownCtx{Context: context.Background(), after: 1 << 60}
	if n, err := Run(whole, cl.NewExec(), c.df, cfg); err != nil || n != want {
		t.Fatalf("uncancelled run: %d, %v", n, err)
	}
	// Poll counts vary a little from run to run (idle machines poll while
	// they wait to steal), so a late cancellation point may find the run
	// already finished; the sweep must still land inside the join stage.
	midJoin := 0
	polls := whole.polls.Load()
	for after := polls / 16; after < polls; after += polls / 16 {
		ex := cl.NewExec()
		n, err := Run(&countdownCtx{Context: context.Background(), after: after}, ex, c.df, cfg)
		if finished := err == nil && n == want; !finished && (!errors.Is(err, context.Canceled) || n != 0) {
			t.Fatalf("cancel after %d polls: %d, %v; want 0, context.Canceled", after, n, err)
		}
		if counted := ex.Metrics.Results.Load(); counted > 0 && counted < want {
			midJoin++
		}
		if live := ex.Metrics.LiveTuples(); live != 0 {
			t.Errorf("cancel after %d polls: %d live tuples", after, live)
		}
		if left, err := os.ReadDir(spillDir); err != nil || len(left) != 0 {
			t.Fatalf("cancel after %d polls: spill directory holds %d files (%v)", after, len(left), err)
		}
	}
	if midJoin == 0 {
		t.Errorf("none of the cancellation points landed inside the join stage (%d polls)", polls)
	}
}

// TestPushJoinSpillMetrics: a q7 run with a small join buffer reports its
// spilled runs and bytes; the default buffer holds the same inputs in memory.
func TestPushJoinSpillMetrics(t *testing.T) {
	c, want := hybridQ7(t)
	cl := cluster.New(c.g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU})
	for _, bufRows := range []int{100, 0} {
		ex := cl.NewExec()
		n, err := Run(context.Background(), ex, c.df, Config{BatchRows: 64, QueueRows: 256, JoinBufferRows: bufRows, Compress: true})
		if err != nil || n != want {
			t.Fatalf("buf=%d: %d, %v; want %d", bufRows, n, err, want)
		}
		s := ex.Metrics.Snapshot()
		if bufRows == 0 {
			if s.JoinSpillRuns != 0 || s.JoinSpillBytes != 0 {
				t.Errorf("default buffer spilled %d runs / %d bytes", s.JoinSpillRuns, s.JoinSpillBytes)
			}
			continue
		}
		// Every run is a full buffer of 4-slot (left) or 3-slot (right) rows.
		if s.JoinSpillRuns == 0 || s.JoinSpillBytes < s.JoinSpillRuns*uint64(bufRows)*3*4 || s.JoinSpillBytes > s.JoinSpillRuns*uint64(bufRows)*4*4 {
			t.Errorf("buf=%d: %d runs / %d bytes spilled", bufRows, s.JoinSpillRuns, s.JoinSpillBytes)
		}
	}
}
