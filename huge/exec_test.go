package huge_test

// Tests of the unified Exec API: exact top-k semantics across plain,
// vertex-labelled, edge-labelled and delta-mode runs (oracle-checked
// totals), stream consumption modes, option validation, and the
// goroutine/spill-file leak regression for abandoned streams.

import (
	"context"
	"errors"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/gpm"
	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/query"
)

// execQueries is the acceptance set: the paper's q1–q8 plus the triangle
// and every 4-vertex gpm pattern.
func execQueries() []*huge.Query {
	qs := append([]*huge.Query{huge.Triangle()}, query.Catalog()...)
	return append(qs, gpm.ConnectedPatterns(4)...)
}

// TestExecLimitExactCount: Exec with Limit(k) must report exactly
// min(k, total) matches — total oracle-checked — for every acceptance
// query, on a plain, a vertex-labelled and an edge-labelled graph.
func TestExecLimitExactCount(t *testing.T) {
	base := gen.PowerLaw(200, 3, 17)
	variants := []struct {
		name string
		g    *huge.Graph
		mk   func(*huge.Query) *huge.Query
	}{
		// Uniformly-labelled twins keep the oracle totals equal to the
		// unconstrained ones while exercising the labelled scan/extend paths.
		{"plain", base, func(q *huge.Query) *huge.Query { return q }},
		{"vertex-labelled", huge.WithLabels(base, make([]huge.LabelID, base.NumVertices())),
			func(q *huge.Query) *huge.Query { return q.WithVertexLabels(make([]int, q.NumVertices())) }},
		{"edge-labelled", huge.WithEdgeLabels(base, func(u, v huge.VertexID) huge.LabelID { return 0 }),
			func(q *huge.Query) *huge.Query { return q.WithEdgeLabels(make([]int, q.NumEdges())) }},
	}
	ctx := context.Background()
	for _, v := range variants {
		sys := huge.NewSystem(v.g, huge.Options{Machines: 3, Workers: 2})
		for _, q := range execQueries() {
			vq := v.mk(q)
			want := baseline.GroundTruthCount(v.g, vq)
			// k >= total forces a full enumeration through the bounded
			// (DFS, small-batch) path; exercising that boundary on the
			// small patterns keeps the suite fast under -race while the
			// big patterns still prove exact sub-total claiming.
			ks := []uint64{0, 1, 3}
			if q.NumVertices() <= 4 {
				ks = append(ks, want, want+9)
			}
			for _, k := range ks {
				wantK := min(k, want)
				res, err := sys.Exec(ctx, vq, huge.CountOnly(), huge.Limit(int(k))).Wait()
				if err != nil {
					t.Fatalf("%s/%s k=%d: %v", v.name, q.Name(), k, err)
				}
				if res.Count != wantK {
					t.Errorf("%s/%s k=%d: count %d, want %d", v.name, q.Name(), k, res.Count, wantK)
				}
			}
		}
	}
}

// TestExecLimitStreamsExactlyK: the streaming form — the iterator must
// yield exactly min(k, total) matches, each a valid embedding per the
// oracle's count indexing, and Wait's Count must agree.
func TestExecLimitStreamsExactlyK(t *testing.T) {
	g := gen.PowerLaw(400, 3, 29)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	ctx := context.Background()
	for _, q := range []*huge.Query{huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q4()} {
		want := baseline.GroundTruthCount(g, q)
		for _, k := range []uint64{1, 5, want + 3} {
			wantK := min(k, want)
			st := sys.Exec(ctx, q, huge.Limit(int(k)))
			var got [][]huge.VertexID
			for m := range st.Matches() {
				got = append(got, m)
			}
			res, err := st.Wait()
			if err != nil {
				t.Fatalf("%s k=%d: %v", q.Name(), k, err)
			}
			if uint64(len(got)) != wantK || res.Count != wantK {
				t.Errorf("%s k=%d: streamed %d, counted %d, want %d",
					q.Name(), k, len(got), res.Count, wantK)
			}
			for _, m := range got {
				if len(m) != q.NumVertices() {
					t.Fatalf("%s: match %v has %d vertices, want %d", q.Name(), m, len(m), q.NumVertices())
				}
			}
		}
	}
}

// TestExecLimitDeltaMode: on a Query.Delta() view the limit applies to the
// stream of new matches — exactly min(k, totalNew) are produced, where
// totalNew is cross-checked via the differential identity.
func TestExecLimitDeltaMode(t *testing.T) {
	g := gen.PowerLaw(500, 4, 11)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	ctx := context.Background()
	var d huge.Delta
	for _, u := range gen.UpdateStream(g, 60, 7) {
		if u.Del {
			d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
		} else {
			d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
		}
	}
	sys.Apply(d)
	for _, q := range []*huge.Query{huge.Triangle(), huge.Q1(), huge.Q2()} {
		dq := q.Delta()
		full, err := sys.Exec(ctx, dq, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("%s full delta: %v", q.Name(), err)
		}
		// Sanity: the unlimited run satisfies the differential identity.
		newTotal := full.DeltaNew
		if oracle := baseline.GroundTruthCount(sys.Graph(), q); uint64(int64(oracle)-full.Delta) !=
			baseline.GroundTruthCount(g, q) {
			t.Fatalf("%s: differential identity broken: delta %+d", q.Name(), full.Delta)
		}
		// A hand-picked plan enumerates the full result, so a delta view
		// must reject it instead of reporting Delta == 0.
		if _, err := sys.Exec(ctx, dq, huge.WithPlan(sys.Plan(q)), huge.CountOnly()).Wait(); !errors.Is(err, huge.ErrInvalidOption) {
			t.Errorf("%s: delta view with WithPlan: err %v, want ErrInvalidOption", q.Name(), err)
		}
		for _, k := range []uint64{0, 1, newTotal, newTotal + 4} {
			wantK := min(k, newTotal)
			res, err := sys.Exec(ctx, dq, huge.CountOnly(), huge.Limit(int(k))).Wait()
			if err != nil {
				t.Fatalf("%s k=%d: %v", q.Name(), k, err)
			}
			if res.Count != wantK || res.DeltaNew != wantK {
				t.Errorf("%s k=%d: count %d (DeltaNew %d), want %d", q.Name(), k, res.Count, res.DeltaNew, wantK)
			}
			if res.Delta != 0 || res.DeltaDead != 0 {
				t.Errorf("%s k=%d: Delta %d DeltaDead %d, want 0 under a limit", q.Name(), k, res.Delta, res.DeltaDead)
			}
			// Streaming form: the iterator carries the same min(k, totalNew).
			st := sys.Exec(ctx, dq, huge.Limit(int(k)))
			var streamed uint64
			for range st.Matches() {
				streamed++
			}
			if _, err := st.Wait(); err != nil {
				t.Fatalf("%s k=%d stream: %v", q.Name(), k, err)
			}
			if streamed != wantK {
				t.Errorf("%s k=%d: streamed %d new matches, want %d", q.Name(), k, streamed, wantK)
			}
		}
	}
}

// TestExecOptionValidation: invalid or conflicting options surface as the
// Stream's error without running anything.
func TestExecOptionValidation(t *testing.T) {
	g := gen.PowerLaw(50, 3, 3)
	sys := huge.NewSystem(g, huge.Options{})
	ctx := context.Background()
	for name, st := range map[string]*huge.Stream{
		"negative limit":     sys.Exec(ctx, huge.Triangle(), huge.Limit(-1)),
		"nil plan":           sys.Exec(ctx, huge.Triangle(), huge.WithPlan(nil)),
		"nil callback":       sys.Exec(ctx, huge.Triangle(), huge.OnMatch(nil)),
		"zero timeout":       sys.Exec(ctx, huge.Triangle(), huge.Timeout(0)),
		"count+callback":     sys.Exec(ctx, huge.Triangle(), huge.CountOnly(), huge.OnMatch(func([]huge.VertexID) {})),
		"nil query":          sys.Exec(ctx, nil),
		"delta with plan":    sys.Exec(ctx, huge.Triangle().Delta(), huge.WithPlan(sys.Plan(huge.Triangle()))),
		"session bad option": sys.NewSession().Exec(ctx, huge.Triangle(), huge.Limit(-3)),
	} {
		if m, ok := st.Next(); ok {
			t.Fatalf("%s: Next yielded %v, want exhausted", name, m)
		}
		if _, err := st.Wait(); err == nil {
			t.Errorf("%s: Wait error nil, want non-nil", name)
		}
	}
	// A session records failed Execs as errors.
	sess := sys.NewSession()
	if _, err := sess.Exec(ctx, huge.Triangle(), huge.Limit(-1)).Wait(); err == nil {
		t.Fatal("want option error")
	}
	if st := sess.Stats(); st.Queries != 1 || st.Errors != 1 {
		t.Errorf("session stats after failed Exec: %+v, want 1 query, 1 error", st)
	}
}

// TestExecWithPlanMustServeQuery: WithPlan runs a plan only for the query
// it serves. A plan for another pattern is rejected outright; a relabelled
// twin's plan may count but not deliver matches, whose slots it would
// index in the twin's numbering; and every family's plan for q — PlanFor's
// or exp.FamilyPlan's — is always accepted for q, even after a twin cached
// its plan under the same key.
func TestExecWithPlanMustServeQuery(t *testing.T) {
	g := gen.PowerLaw(200, 3, 17)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()
	onMatch := huge.OnMatch(func([]huge.VertexID) {})

	if _, err := sys.Exec(ctx, huge.Q1(), huge.CountOnly(), huge.WithPlan(sys.PlanFor(huge.Triangle(), "wco"))).Wait(); !errors.Is(err, huge.ErrInvalidOption) {
		t.Errorf("square run with a triangle plan: err %v, want ErrInvalidOption", err)
	}

	paw := huge.NewQuery("paw", [][2]int{{0, 1}, {1, 2}, {2, 0}, {0, 3}})
	twin := huge.NewQuery("paw-twin", [][2]int{{3, 1}, {1, 2}, {2, 3}, {3, 0}}) // 0 <-> 3
	if twin.SameNumbering(paw) || twin.Fingerprint() != paw.Fingerprint() {
		t.Fatal("twin must be the same pattern in another numbering")
	}
	want := baseline.GroundTruthCount(g, paw)
	twinPlan := sys.PlanFor(twin, "wco")
	if _, err := sys.Exec(ctx, paw, onMatch, huge.WithPlan(twinPlan)).Wait(); !errors.Is(err, huge.ErrInvalidOption) {
		t.Errorf("OnMatch run with the twin's plan: err %v, want ErrInvalidOption", err)
	}
	if res, err := sys.Exec(ctx, paw, huge.CountOnly(), huge.WithPlan(twinPlan)).Wait(); err != nil || res.Count != want {
		t.Errorf("counting run with the twin's plan: count %d, err %v; want %d", res.Count, err, want)
	}

	for _, family := range []string{"optimal", "wco", "seed", "rads", "benu", "emptyheaded", "graphflow"} {
		p := sys.PlanFor(paw, family)
		if p == nil {
			var err error
			if p, err = exp.FamilyPlan(g, paw, family, 2); err != nil {
				t.Fatal(err)
			}
		}
		var mu sync.Mutex
		var n uint64
		res, err := sys.Exec(ctx, paw, huge.WithPlan(p), huge.OnMatch(func(m []huge.VertexID) {
			mu.Lock()
			defer mu.Unlock()
			n++
			for _, e := range paw.Edges() {
				if !g.HasEdge(m[e[0]], m[e[1]]) {
					t.Errorf("%s: match %v misses query edge %v", family, m, e)
				}
			}
		})).Wait()
		if err != nil || res.Count != want || n != want {
			t.Errorf("%s: paw's plan under OnMatch: count %d, delivered %d, err %v; want %d", family, res.Count, n, err, want)
		}
	}
}

// TestPlanForUnknownFamily: a name that is no plan family yields no plan —
// nothing is built or cached — and Exec with it is an option error rather
// than a silent optimal run.
func TestPlanForUnknownFamily(t *testing.T) {
	sys := huge.NewSystem(gen.PowerLaw(100, 3, 5), huge.Options{})
	q := huge.Q1()
	sys.Plan(q)
	_, _, before := sys.PlanCacheStats()
	p := sys.PlanFor(q, "wcoo")
	if p != nil {
		t.Fatalf("PlanFor(q, %q) = %s, want nil", "wcoo", p.Name)
	}
	if _, _, after := sys.PlanCacheStats(); after != before {
		t.Errorf("plan cache size %d -> %d: an unknown family was cached", before, after)
	}
	if _, err := sys.Exec(context.Background(), q, huge.CountOnly(), huge.WithPlan(p)).Wait(); !errors.Is(err, huge.ErrInvalidOption) {
		t.Errorf("Exec with the unknown family's plan: err %v, want ErrInvalidOption", err)
	}
}

// TestExecTimeout: an expired Timeout aborts the run with
// context.DeadlineExceeded.
func TestExecTimeout(t *testing.T) {
	g := gen.PowerLaw(3000, 8, 17)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	_, err := sys.Exec(context.Background(), huge.Q6(), huge.CountOnly(), huge.Timeout(time.Microsecond)).Wait()
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

// TestExecOnMatchDelivery: the OnMatch option delivers every match through
// the callback, with the count agreeing.
func TestExecOnMatchDelivery(t *testing.T) {
	g := gen.PowerLaw(300, 3, 7)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	q := huge.Q1()
	want := baseline.GroundTruthCount(g, q)
	var n atomic.Uint64
	res, err := sys.Exec(context.Background(), q, huge.OnMatch(func(m []huge.VertexID) {
		n.Add(1)
	})).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != want || n.Load() != want {
		t.Fatalf("count %d, callbacks %d, want %d", res.Count, n.Load(), want)
	}
}

// TestExecAbandonedStreamReleasesResources is the leak regression test:
// start a streaming Exec on a large generated graph with a spilling
// PUSH-JOIN plan, consume one match, drop the stream (break out of the
// iterator), and assert the engine goroutines exit and the spill temp
// directory is empty.
func TestExecAbandonedStreamReleasesResources(t *testing.T) {
	spillDir := t.TempDir()
	t.Setenv("TMPDIR", spillDir) // spill files land where we can see them
	g := huge.Generate("GO", 1)
	// Small join buffers force the SEED plan's pushing joins to spill.
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2, JoinBufferRows: 256})
	q := huge.Q5()
	p, err := exp.FamilyPlan(g, q, "seed", 3)
	if err != nil {
		t.Fatal(err)
	}
	baseGoroutines := runtime.NumGoroutine()

	st := sys.Exec(context.Background(), q, huge.WithPlan(p))
	consumed := 0
	for range st.Matches() {
		if consumed++; consumed >= 1 {
			// The run is mid-join (far more matches remain than the stream
			// buffers), so the spilled feed relations must be live on disk
			// right now — which is what makes the cleanup assertion below
			// meaningful.
			if spills := countSpills(t, spillDir); spills == 0 {
				t.Error("no spill files while the join stage is mid-flight; shrink JoinBufferRows")
			}
			break // abandons the stream: Matches closes it
		}
	}
	if consumed != 1 {
		t.Fatalf("consumed %d matches, want 1", consumed)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseGoroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseGoroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d > baseline %d after abandoning stream\n%s",
			n, baseGoroutines, buf[:runtime.Stack(buf, true)])
	}
	if spills := countSpills(t, spillDir); spills != 0 {
		t.Errorf("%d spill files left behind by abandoned stream", spills)
	}
}

func countSpills(t *testing.T, dir string) int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "huge-join-spill-") {
			n++
		}
	}
	return n
}

// TestExecAbandonViaContextCancel: cancelling the caller's context releases
// the run the same way Close does.
func TestExecAbandonViaContextCancel(t *testing.T) {
	g := gen.PowerLaw(2000, 6, 13)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	st := sys.Exec(ctx, huge.Q6())
	if _, ok := st.Next(); !ok {
		t.Fatal("no first match before cancel")
	}
	cancel()
	if _, err := st.Wait(); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want nil or Canceled", err)
	}
}

// TestExecConcurrentSessionsWithApply exercises the whole surface under
// -race: four sessions mixing counting Execs, limited streams, abandoned
// streams and delta views, interleaved with System.Apply and
// Session.Refresh on the shared deployment.
func TestExecConcurrentSessionsWithApply(t *testing.T) {
	g := gen.PowerLaw(400, 3, 31)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	queries := []*huge.Query{huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q4()}
	updates := gen.UpdateStream(g, 120, 9)

	var wg sync.WaitGroup
	// Updater: a stream of small Applies racing the sessions below.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for lo := 0; lo+10 <= len(updates); lo += 10 {
			var d huge.Delta
			for _, u := range updates[lo : lo+10] {
				if u.Del {
					d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
				} else {
					d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
				}
			}
			sys.Apply(d)
		}
	}()

	ctx := context.Background()
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			sess := sys.NewSession()
			for i := 0; i < 10; i++ {
				q := queries[(s+i)%len(queries)]
				switch i % 4 {
				case 0:
					// Repeatable reads: two runs on the session's pinned snapshot
					// agree whatever the updater installs in between.
					r1, err1 := sess.Exec(ctx, q, huge.CountOnly()).Wait()
					r2, err2 := sess.Exec(ctx, q, huge.CountOnly()).Wait()
					if err1 != nil || err2 != nil {
						t.Errorf("s%d/%s: run errs %v / %v", s, q.Name(), err1, err2)
						return
					}
					if r1.Count != r2.Count {
						t.Errorf("s%d/%s: pinned counts %d != %d", s, q.Name(), r1.Count, r2.Count)
					}
				case 1:
					// Engine-side limit under concurrency.
					st := sess.Exec(ctx, q, huge.Limit(3))
					var n uint64
					for range st.Matches() {
						n++
					}
					res, err := st.Wait()
					if err != nil {
						t.Errorf("s%d/%s: limited: %v", s, q.Name(), err)
						return
					}
					if n > 3 || res.Count != n {
						t.Errorf("s%d/%s: limited stream %d matches, counted %d", s, q.Name(), n, res.Count)
					}
				case 2:
					// Abandoned stream: break after one match.
					st := sess.Exec(ctx, q)
					for range st.Matches() {
						break
					}
				case 3:
					// Delta view on the pinned epoch.
					if _, err := sess.Exec(ctx, q.Delta(), huge.CountOnly()).Wait(); err != nil {
						t.Errorf("s%d/%s: delta: %v", s, q.Name(), err)
						return
					}
					sess.Refresh()
				}
			}
		}(s)
	}
	wg.Wait()
}
