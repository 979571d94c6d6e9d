package huge_test

import (
	"context"
	"testing"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/exp"
	"repro/internal/gen"
)

// TestTwinTailRowsMetric: Summary.TailRows reports the prefix rows a
// tail counted. It fires for the square and the diamond, and for the
// square grouped by v1 or v3 (the wedge shape's c1 and c2); it stays 0 for
// patterns without twins, a group key on a twin, OnMatch, Limit streams
// and uncompressed runs.
func TestTwinTailRowsMetric(t *testing.T) {
	g := gen.PowerLaw(400, 4, 53)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()
	q1 := huge.Q1()
	run := func(name string, q *huge.Query, opts ...huge.Option) huge.Result {
		t.Helper()
		res, err := sys.Exec(ctx, q, opts...).Wait()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return res
	}
	fires := []struct {
		name string
		q    *huge.Query
		opts []huge.Option
	}{
		{"q1", q1, []huge.Option{huge.CountOnly()}},
		{"q2", huge.Q2(), []huge.Option{huge.CountOnly()}},
		{"q1 by v1", q1, []huge.Option{huge.GroupBy(huge.VertexVar(0))}},
		{"q1 by v3", q1, []huge.Option{huge.GroupBy(huge.VertexVar(2))}},
		{"q1 by v1, wco plan", q1, []huge.Option{huge.GroupBy(huge.VertexVar(0)), huge.WithPlan(sys.PlanFor(q1, "wco"))}},
	}
	for _, c := range fires {
		res := run(c.name, c.q, c.opts...)
		if want := baseline.GroundTruthCount(g, c.q); res.Count != want {
			t.Errorf("%s: count %d, want %d", c.name, res.Count, want)
		}
		if res.Metrics.TailRows == 0 {
			t.Errorf("%s: no twin-tail rows counted", c.name)
		}
	}

	silent := []struct {
		name string
		q    *huge.Query
		opts []huge.Option
	}{
		{"triangle", huge.Triangle(), []huge.Option{huge.CountOnly()}},
		{"q3", huge.Q3(), []huge.Option{huge.CountOnly()}},
		{"q1 by v2 (a twin)", q1, []huge.Option{huge.GroupBy(huge.VertexVar(1))}},
		{"q1 OnMatch", q1, []huge.Option{huge.OnMatch(func([]huge.VertexID) {})}},
	}
	for _, c := range silent {
		if res := run(c.name, c.q, c.opts...); res.Metrics.TailRows != 0 {
			t.Errorf("%s: %d twin-tail rows, want 0", c.name, res.Metrics.TailRows)
		}
	}

	st := sys.Exec(ctx, q1, huge.Limit(10))
	n := 0
	for range st.Matches() {
		n++
	}
	res, err := st.Wait()
	if err != nil || n != 10 {
		t.Fatalf("q1 Limit(10) stream: %d matches, %v", n, err)
	}
	if res.Metrics.TailRows != 0 {
		t.Errorf("q1 Limit(10) stream: %d twin-tail rows, want 0", res.Metrics.TailRows)
	}

	// The experiment rig runs HUGE uncompressed, so its tables keep
	// measuring enumeration.
	env := exp.TinyEnv()
	if r := env.RunHUGE(g, q1, exp.HugeOpts{}); r.Err != nil || r.Summary.TailRows != 0 {
		t.Errorf("uncompressed q1: %d twin-tail rows (err %v), want 0", r.Summary.TailRows, r.Err)
	}
}

// TestTwinTailLimitCountOnly: Limit(k) with CountOnly counts a twin tail
// with one budget claim per prefix row and must still report exactly
// min(k, total).
func TestTwinTailLimitCountOnly(t *testing.T) {
	g := gen.PowerLaw(300, 4, 59)
	ctx := context.Background()
	for _, opts := range []huge.Options{{Machines: 1, Workers: 2}, {Machines: 3, Workers: 1}} {
		sys := huge.NewSystem(g, opts)
		for _, q := range []*huge.Query{huge.Q1(), huge.Q2()} {
			total := baseline.GroundTruthCount(g, q)
			for _, k := range []int{1, 7, int(total) - 1, int(total), int(total) + 3} {
				res, err := sys.Exec(ctx, q, huge.Limit(k), huge.CountOnly()).Wait()
				if err != nil {
					t.Fatal(err)
				}
				if want := min(uint64(k), total); res.Count != want {
					t.Errorf("%s machines=%d Limit(%d): count %d, want %d", q.Name(), opts.Machines, k, res.Count, want)
				}
			}
		}
	}
}
