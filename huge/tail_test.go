package huge_test

import (
	"context"
	"testing"

	"repro/huge"
	"repro/internal/baseline"
)

// TestTailQ7 counts q7 through System.Exec: CountOnly and Limit(k) with
// CountOnly count at its middle edge (dataflow.PathSeparator) and push
// nothing (steal shipments are counted apart); a grouped run keeps q7's
// own orders, so a key on a middle vertex counts the path ends as a pair
// tail and a key on a path end falls back to enumerating. Every answer
// matches the oracle.
func TestTailQ7(t *testing.T) {
	g := testGraph(300, 3, 0, 61)
	ctx := context.Background()
	q := huge.Q7()
	total := baseline.GroundTruthCount(g, q)
	for _, opts := range []huge.Options{{Machines: 1, Workers: 2}, {Machines: 2, Workers: 1}} {
		sys := huge.NewSystem(g, opts)
		res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatal(err)
		}
		if res.Metrics.BytesPushed != 0 {
			t.Errorf("machines=%d: q7's count pushed %d bytes; want no shuffle", opts.Machines, res.Metrics.BytesPushed)
		}
		if res.Count != total || res.Metrics.TailRows == 0 {
			t.Errorf("machines=%d: count %d (want %d), %d tail rows; want a counted tail",
				opts.Machines, res.Count, total, res.Metrics.TailRows)
		}
		for _, k := range []int{1, 7, int(total) - 1, int(total) + 3} {
			res, err := sys.Exec(ctx, q, huge.Limit(k), huge.CountOnly()).Wait()
			if err != nil {
				t.Fatal(err)
			}
			if want := min(uint64(k), total); res.Count != want {
				t.Errorf("machines=%d Limit(%d): count %d, want %d", opts.Machines, k, res.Count, want)
			}
		}
		for _, v := range []int{0, 2} { // a path end, a prefix vertex
			res, err := sys.Exec(ctx, q, huge.GroupBy(huge.VertexVar(v))).Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Count != total || (res.Metrics.TailRows > 0) != (v == 2) {
				t.Errorf("machines=%d by v%d: count %d (want %d), %d tail rows", opts.Machines, v+1, res.Count, total, res.Metrics.TailRows)
			}
		}
	}
}

// TestTailQ7DeltaIdentity: full(t) + Δ == full(t+1) for q7, unlabelled and
// with its path ends labelled alike or apart (an ordered pair, an
// unordered one), under edge inserts, deletes and vertex relabels. The
// delta flows end in two independent targets too.
func TestTailQ7DeltaIdentity(t *testing.T) {
	for _, tc := range []struct {
		name   string
		labels []int
	}{
		{"unlabelled", nil},
		{"ends alike", []int{1, huge.AnyLabel, huge.AnyLabel, huge.AnyLabel, huge.AnyLabel, 1}},
		{"ends apart", []int{1, huge.AnyLabel, huge.AnyLabel, huge.AnyLabel, huge.AnyLabel, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			numLabels := 0
			q := huge.Q7()
			if tc.labels != nil {
				numLabels = 3
				q = q.WithVertexLabels(tc.labels)
			}
			sys := huge.NewSystem(testGraph(260, 3, numLabels, 67), huge.Options{Machines: 2, Workers: 2})
			for round := 0; round < 3; round++ {
				oldG, oldSess := sys.Graph(), sys.NewSession()
				sys.Apply(randomDelta(oldG, 30, 4*numLabels, max(numLabels, 1), int64(300+round)))
				checkDifferential(t, sys, oldSess, sys.NewSession(), oldG, sys.Graph(), q)
			}
			res, err := sys.Exec(context.Background(), q.Delta(), huge.CountOnly()).Wait()
			if err != nil {
				t.Fatal(err)
			}
			if res.Metrics.TailRows == 0 {
				t.Error("no delta flow counted a tail")
			}
		})
	}
}
