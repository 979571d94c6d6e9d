package store

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
)

// goldenSection returns section sec of the committed v1 snapshot, the seed
// corpus's bytes as a real store wrote them.
func goldenSection(f *testing.F, sec int) []byte {
	f.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "snap_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	h, err := decodeHeader(b)
	if err != nil {
		f.Fatal(err)
	}
	s := h.secs[sec]
	return b[s.off : s.off+s.length]
}

// FuzzWALPayload: decoding a log record's payload never panics, and an
// accepted record re-encodes to a payload that decodes to the same epoch
// and delta, and re-encodes to itself.
func FuzzWALPayload(f *testing.F) {
	f.Add(encodeWALPayload(1, graph.Delta{}))
	f.Add(encodeWALPayload(7, graph.Delta{
		Insert:       [][2]graph.VertexID{{0, 1}, {2, 3}},
		InsertLabels: []graph.LabelID{4, 5},
		Delete:       [][2]graph.VertexID{{1, 2}},
		Relabel:      []graph.EdgeLabel{{U: 0, V: 3, L: 2}},
		Labels:       []graph.VertexLabel{{V: 3, L: 1}},
	}))
	f.Add(encodeWALPayload(1<<40, graph.Delta{Insert: [][2]graph.VertexID{{9, 8}}, InsertLabels: []graph.LabelID{}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		epoch, d, err := decodeWALPayload(b)
		if err != nil {
			return
		}
		again := encodeWALPayload(epoch, d)
		epoch2, d2, err := decodeWALPayload(again)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v", err)
		}
		if epoch2 != epoch || !reflect.DeepEqual(d2, d) {
			t.Fatalf("round trip changed the record: epoch %d → %d, delta %+v → %+v", epoch, epoch2, d, d2)
		}
		if !bytes.Equal(encodeWALPayload(epoch2, d2), again) {
			t.Fatal("re-encoding is not stable")
		}
	})
}

// FuzzPlanSpecs: decoding the plan-spec section never panics, and accepted
// specs survive a round trip through encodePlanSpecs.
func FuzzPlanSpecs(f *testing.F) {
	f.Add(goldenSection(f, secPlans))
	f.Add(encodePlanSpecs(nil))
	f.Add(encodePlanSpecs([]PlanSpec{
		{Family: "optimal", Name: "q1", NumV: 4, Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}},
		{Family: "wco", Name: "lab", NumV: 2, Edges: [][2]int{{0, 1}}, VLabels: []int{query.AnyLabel, 3}, ELabels: []int{2}},
	}))
	f.Fuzz(func(t *testing.T, b []byte) {
		specs, err := decodePlanSpecs(b)
		if err != nil {
			return
		}
		again, err := decodePlanSpecs(encodePlanSpecs(specs))
		if err != nil {
			t.Fatalf("re-encoded specs do not decode: %v", err)
		}
		if !reflect.DeepEqual(again, specs) {
			t.Fatalf("round trip changed the specs: %+v → %+v", specs, again)
		}
	})
}

// FuzzDecodeStats: plan.DecodeStats never panics on the stats section,
// and accepted statistics re-encode stably with the same fingerprint.
func FuzzDecodeStats(f *testing.F) {
	f.Add(goldenSection(f, secStats))
	f.Add(plan.EncodeStats(plan.ComputeStats(gen.PowerLaw(60, 3, 1))))
	f.Add(plan.EncodeStats(plan.ComputeStats(gen.ZipfEdgeLabels(gen.ZipfLabels(gen.PowerLaw(40, 2, 2), 3, 1.2, 3), 2, 1.2, 4))))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := plan.DecodeStats(b)
		if err != nil {
			return
		}
		enc := plan.EncodeStats(s)
		s2, err := plan.DecodeStats(enc)
		if err != nil {
			t.Fatalf("re-encoded stats do not decode: %v", err)
		}
		if !bytes.Equal(plan.EncodeStats(s2), enc) || s2.Fingerprint() != s.Fingerprint() {
			t.Fatal("round trip changed the statistics")
		}
	})
}

// FuzzSnapshotFile: loading a whole snapshot file never panics, and a graph
// the loader accepts serves a triangle count. The harness reseals every
// mutated file, so mutations of section content get past the checksums to
// assemble and graph.FromCSR's content check.
func FuzzSnapshotFile(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("testdata", "snap_v1.golden"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	df, err := plan.Translate(plan.HugeWcoPlanStats(query.Triangle(), plan.GraphStats{}))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		b = slices.Clone(b) // resealed in place, then aliased by the graph
		reseal(b)
		rec, err := decodeSnapshot(b)
		if err != nil {
			return
		}
		ex := cluster.New(rec.Graph, cluster.Config{NumMachines: 2, Workers: 1}).NewExec()
		if _, err := engine.Run(context.Background(), ex, df, engine.Config{}); err != nil {
			t.Fatalf("triangle count over an accepted snapshot: %v", err)
		}
	})
}
