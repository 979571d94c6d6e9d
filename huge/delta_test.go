package huge_test

// Differential property tests for versioned snapshots: after any random
// delta, the full count on the new snapshot must equal the full count on
// the old snapshot plus the delta-mode count — engine against engine, and
// both against the ground-truth oracle. Runs for q1–q8, the triangle, and
// every gpm pattern, unlabelled and labelled, and is exercised by CI under
// -race (sessions on both snapshots run concurrently below).

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/gpm"
	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/graph"
)

// testGraph builds a small power-law graph (plus a labelled twin when
// numLabels > 0) dense enough that q1–q8 all have matches but the oracle
// stays fast.
func testGraph(n, m int, numLabels int, seed int64) *huge.Graph {
	g := gen.PowerLaw(n, m, seed)
	if numLabels > 0 {
		return gen.ZipfLabels(g, numLabels, 1.5, seed+1)
	}
	return g
}

// randomDelta derives a delta from a synthetic update stream, optionally
// with label churn.
func randomDelta(g *huge.Graph, ops int, labelChanges int, numLabels int, seed int64) huge.Delta {
	var d huge.Delta
	for _, u := range gen.UpdateStream(g, ops, seed) {
		if u.Del {
			d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
		} else {
			d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
		}
	}
	rng := rand.New(rand.NewSource(seed + 7))
	for i := 0; i < labelChanges; i++ {
		d.Labels = append(d.Labels, huge.VertexLabel{
			V: huge.VertexID(rng.Intn(g.NumVertices())),
			L: huge.LabelID(rng.Intn(numLabels)),
		})
	}
	return d
}

// checkDifferential asserts, for one query, the invariant
// full(t+1) == full(t) + delta across engine and oracle.
func checkDifferential(t *testing.T, sys *huge.System, oldSess, newSess *huge.Session, oldG, newG *huge.Graph, q *huge.Query) {
	t.Helper()
	ctx := context.Background()
	oldRes, err := oldSess.Exec(ctx, q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatalf("%s: old run: %v", q.Name(), err)
	}
	newRes, err := newSess.Exec(ctx, q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatalf("%s: new run: %v", q.Name(), err)
	}
	deltaRes, err := newSess.Exec(ctx, q.Delta(), huge.CountOnly()).Wait()
	if err != nil {
		t.Fatalf("%s: delta run: %v", q.Name(), err)
	}
	wantOld := baseline.GroundTruthCount(oldG, q)
	wantNew := baseline.GroundTruthCount(newG, q)
	if oldRes.Count != wantOld {
		t.Fatalf("%s: old count %d, oracle %d", q.Name(), oldRes.Count, wantOld)
	}
	if newRes.Count != wantNew {
		t.Fatalf("%s: new count %d, oracle %d", q.Name(), newRes.Count, wantNew)
	}
	if got := int64(oldRes.Count) + deltaRes.Delta; got != int64(newRes.Count) {
		t.Fatalf("%s: differential broke: old %d + delta %d = %d, want new %d (new=%d dead=%d)",
			q.Name(), oldRes.Count, deltaRes.Delta, got, newRes.Count, deltaRes.DeltaNew, deltaRes.DeltaDead)
	}
	if int64(wantOld)+deltaRes.Delta != int64(wantNew) {
		t.Fatalf("%s: delta disagrees with oracle: oracle old %d new %d, engine delta %d",
			q.Name(), wantOld, wantNew, deltaRes.Delta)
	}
}

func TestDifferentialQ1toQ8(t *testing.T) {
	for _, tc := range []struct {
		name      string
		numLabels int
		labelOps  int
	}{
		{"unlabelled", 0, 0},
		{"labelled", 4, 3}, // includes label churn in the delta
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := testGraph(280, 3, tc.numLabels, 21)
			sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
			queries := []*huge.Query{
				huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q3(), huge.Q4(),
				huge.Q5(), huge.Q6(), huge.Q7(), huge.Q8(),
			}
			if tc.numLabels > 0 {
				// Constrain a vertex of each query to a mid-frequency label
				// so the labelled path (including churn) is really exercised.
				for i, q := range queries {
					labels := make([]int, q.NumVertices())
					for v := range labels {
						labels[v] = huge.AnyLabel
					}
					labels[0] = 1
					queries[i] = q.WithVertexLabels(labels)
				}
			}
			for round := 0; round < 2; round++ {
				oldG := sys.Graph()
				oldSess := sys.NewSession()
				d := randomDelta(oldG, 30, tc.labelOps, max(tc.numLabels, 1), int64(100+round))
				epoch := sys.Apply(d)
				if epoch != oldG.Epoch()+1 {
					t.Fatalf("Apply returned epoch %d after %d", epoch, oldG.Epoch())
				}
				newSess := sys.NewSession()
				newG := sys.Graph()
				for _, q := range queries {
					checkDifferential(t, sys, oldSess, newSess, oldG, newG, q)
				}
			}
		})
	}
}

func TestDifferentialGPMPatterns(t *testing.T) {
	g := testGraph(250, 3, 0, 33)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	oldG := sys.Graph()
	oldSess := sys.NewSession()
	sys.Apply(randomDelta(oldG, 25, 0, 1, 55))
	newSess := sys.NewSession()
	newG := sys.Graph()
	for _, k := range []int{3, 4} {
		for _, q := range gpm.ConnectedPatterns(k) {
			checkDifferential(t, sys, oldSess, newSess, oldG, newG, q)
		}
	}
}

// TestDeltaConcurrentSessions drives pinned old-snapshot sessions, pinned
// new-snapshot sessions and delta runs at the same time — the scenario the
// snapshot design exists for, and the race detector's target.
func TestDeltaConcurrentSessions(t *testing.T) {
	g := testGraph(300, 3, 0, 44)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	q := huge.Triangle()
	oldG := sys.Graph()
	oldSess := sys.NewSession()
	sys.Apply(randomDelta(oldG, 20, 0, 1, 66))
	newG := sys.Graph()
	wantOld := baseline.GroundTruthCount(oldG, q)
	wantNew := baseline.GroundTruthCount(newG, q)
	wantDelta := int64(wantNew) - int64(wantOld)

	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := oldSess.Exec(context.Background(), q, huge.CountOnly()).Wait()
			if err != nil || res.Count != wantOld {
				errs <- "old session drifted"
			}
		}()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sess := sys.NewSession()
			res, err := sess.Exec(context.Background(), q, huge.CountOnly()).Wait()
			if err != nil || res.Count != wantNew {
				errs <- "new session drifted"
			}
			dres, err := sess.Exec(context.Background(), q.Delta(), huge.CountOnly()).Wait()
			if err != nil || dres.Delta != wantDelta {
				errs <- "delta run drifted"
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestSessionPinningAndRefresh: a session opened before an update keeps
// answering on its snapshot until Refresh.
func TestSessionPinningAndRefresh(t *testing.T) {
	g := huge.FromEdges([][2]huge.VertexID{{0, 1}, {1, 2}, {2, 0}, {2, 3}})
	sys := huge.NewSystem(g, huge.Options{})
	q := huge.Triangle()
	sess := sys.NewSession()
	if sess.Epoch() != 0 {
		t.Fatalf("fresh session epoch %d", sess.Epoch())
	}
	res, _ := sess.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if res.Count != 1 {
		t.Fatalf("base triangle count %d", res.Count)
	}
	// Inserting (0,3) and (1,3) completes three new triangles: 023, 123, 013.
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 3}, {1, 3}}})
	res, _ = sess.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if res.Count != 1 {
		t.Fatalf("pinned session saw the update: count %d", res.Count)
	}
	if e := sess.Refresh(); e != 1 {
		t.Fatalf("Refresh returned epoch %d", e)
	}
	res, _ = sess.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if res.Count != 4 {
		t.Fatalf("refreshed session count %d, want 4", res.Count)
	}
}

// TestPlanCacheAcrossEpochs: a plan cached before an update is never
// served after it (the epoch seasons the stats fingerprint), and the stale
// entries are evicted rather than left to crowd the LRU.
func TestPlanCacheAcrossEpochs(t *testing.T) {
	g := testGraph(200, 3, 0, 77)
	sys := huge.NewSystem(g, huge.Options{Machines: 2})
	q := huge.Q1()
	ctx := context.Background()
	if res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait(); err != nil || res.PlanCached {
		t.Fatalf("first run: err=%v cached=%v", err, res.PlanCached)
	}
	if res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait(); err != nil || !res.PlanCached {
		t.Fatalf("second run should hit the plan cache (err=%v)", err)
	}
	_, _, size := sys.PlanCacheStats()
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 199}}})
	if _, _, sizeAfter := sys.PlanCacheStats(); sizeAfter >= size && size > 0 {
		t.Fatalf("stale plans not evicted: size %d -> %d", size, sizeAfter)
	}
	if res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait(); err != nil || res.PlanCached {
		t.Fatalf("post-update run must re-optimise: err=%v cached=%v", err, res.PlanCached)
	}
	if res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait(); err != nil || !res.PlanCached {
		t.Fatalf("repeat post-update run should cache again (err=%v)", err)
	}
}

// TestRunPlanRejectsDeltaQueries: a hand-picked plan cannot serve a delta
// view (it would report Delta == 0 and corrupt maintained counts), so
// WithPlan must fail loudly instead of silently running the full plan.
func TestRunPlanRejectsDeltaQueries(t *testing.T) {
	g := huge.FromEdges([][2]huge.VertexID{{0, 1}, {1, 2}, {2, 0}})
	sys := huge.NewSystem(g, huge.Options{})
	q := huge.Triangle()
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 3}}})
	if _, err := sys.Exec(context.Background(), q.Delta(), huge.WithPlan(sys.Plan(q)), huge.CountOnly()).Wait(); err == nil {
		t.Fatal("WithPlan accepted a delta-mode query")
	}
	if _, err := sys.NewSession().Exec(context.Background(), q.Delta(), huge.WithPlan(sys.Plan(q)), huge.CountOnly()).Wait(); err == nil {
		t.Fatal("Session WithPlan accepted a delta-mode query")
	}
}

// TestApplyLabelOnlyGrowthServes: a label-only delta that grows the vertex
// set must leave the system fully queryable (regression for the overlay
// fast path sharing stale offsets).
func TestApplyLabelOnlyGrowthServes(t *testing.T) {
	g := huge.FromEdges([][2]huge.VertexID{{0, 1}, {1, 2}, {2, 0}})
	sys := huge.NewSystem(g, huge.Options{Machines: 2})
	sys.Apply(huge.Delta{Labels: []huge.VertexLabel{{V: 9, L: 1}}})
	res, err := sys.Exec(context.Background(), huge.Triangle(), huge.CountOnly()).Wait()
	if err != nil || res.Count != 1 {
		t.Fatalf("post-growth run: count %d err %v", res.Count, err)
	}
	if got := sys.Graph().NumVertices(); got != 10 {
		t.Fatalf("NumVertices %d, want 10", got)
	}
}

// TestApplyCostDoesNotScaleWithGraph: what an Apply allocates depends on
// the update, not on the graph it lands in — 50 single-edge Applies on
// fresh graphs of equal average degree cost the same bytes at 8K and at
// 64K vertices. (When every snapshot was partitioned into per-machine
// vertex lists, the larger graph cost 8x.) Under the race detector the
// runtime's own allocations blur the count, hence the 2x allowance.
func TestApplyCostDoesNotScaleWithGraph(t *testing.T) {
	applyBytes := func(v int) uint64 {
		sys := huge.NewSystem(gen.PowerLaw(v, 4, 11), huge.Options{})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := 0; i < 50; i++ {
			u := huge.VertexID(i * 37)
			sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{u, u + huge.VertexID(v/2)}}})
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := applyBytes(8<<10), applyBytes(64<<10)
	if large >= 2*small {
		t.Fatalf("50 single-edge Applies allocate %d KB on 8K vertices but %d KB on 64K", small>>10, large>>10)
	}
}

// TestDeltaEnumerateStreamsNewMatches: Enumerate on a delta view streams
// exactly the matches that contain an inserted edge.
func TestDeltaEnumerateStreamsNewMatches(t *testing.T) {
	g := testGraph(200, 3, 0, 88)
	sys := huge.NewSystem(g, huge.Options{Machines: 2})
	oldG := sys.Graph()
	sys.Apply(randomDelta(oldG, 16, 0, 1, 99))
	newG := sys.Graph()
	q := huge.Triangle()
	var mu sync.Mutex
	got := map[[3]huge.VertexID]int{}
	res, err := sys.Exec(context.Background(), q.Delta(), huge.OnMatch(func(m []huge.VertexID) {
		mu.Lock()
		got[[3]huge.VertexID{m[0], m[1], m[2]}]++
		mu.Unlock()
	})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	// Oracle: new-snapshot matches using at least one edge absent from the
	// old snapshot.
	want := map[[3]huge.VertexID]bool{}
	baseline.GroundTruthEnumerate(newG, q, func(m []graph.VertexID) bool {
		uses := false
		for _, e := range q.Edges() {
			if !oldG.HasEdge(m[e[0]], m[e[1]]) {
				uses = true
				break
			}
		}
		if uses {
			want[[3]huge.VertexID{m[0], m[1], m[2]}] = true
		}
		return true
	})
	if len(got) != len(want) || res.DeltaNew != uint64(len(want)) {
		t.Fatalf("streamed %d distinct new matches (DeltaNew %d), oracle %d", len(got), res.DeltaNew, len(want))
	}
	for m, n := range got {
		if n != 1 {
			t.Fatalf("match %v streamed %d times", m, n)
		}
		if !want[m] {
			t.Fatalf("match %v streamed but not new", m)
		}
	}
}

// TestDeltaRunMetricsFoldEveryFlow: a delta run executes one engine run per
// pinned query edge and side, and its Result.Metrics is their fold — the
// kernel mix included, which used to be dropped (every delta and
// maintenance run reported zero dispatches).
func TestDeltaRunMetricsFoldEveryFlow(t *testing.T) {
	g := testGraph(200, 3, 0, 88)
	sys := huge.NewSystem(g, huge.Options{Machines: 2})
	sys.Apply(randomDelta(g, 16, 0, 1, 99))
	res, err := sys.Exec(context.Background(), huge.Triangle().Delta(), huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.DeltaNew == 0 || res.DeltaDead == 0 {
		t.Fatalf("delta touched no triangle on one side (new %d, dead %d): the test needs both", res.DeltaNew, res.DeltaDead)
	}
	if res.Metrics.Kernels.Total() == 0 {
		t.Errorf("delta run found %d matches through intersections but reports no kernel dispatch: %+v",
			res.DeltaNew+res.DeltaDead, res.Metrics.Kernels)
	}
	if got, want := res.Metrics.Results, res.DeltaNew+res.DeltaDead; got != want {
		t.Errorf("Metrics.Results = %d, want DeltaNew + DeltaDead = %d", got, want)
	}
}
