package baseline

import (
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
)

func TestSimKVGetAccounting(t *testing.T) {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}})
	m := &metrics.Metrics{}
	s := NewSimKV(g, m)
	nb := s.Get(1)
	if len(nb) != 2 {
		t.Fatalf("Get(1) = %v", nb)
	}
	sum := m.Snapshot()
	if sum.RPCCalls != 1 {
		t.Fatalf("rpc calls %d", sum.RPCCalls)
	}
	if sum.BytesPulled != 4+8 { // key + 2 neighbours
		t.Fatalf("pulled %d bytes", sum.BytesPulled)
	}
}

func TestSimKVGetBatchSingleRequest(t *testing.T) {
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {0, 2}})
	m := &metrics.Metrics{}
	s := NewSimKV(g, m)
	out := s.GetBatch([]graph.VertexID{0, 1, 2})
	if len(out) != 3 {
		t.Fatalf("batch size %d", len(out))
	}
	if m.RPCCalls.Load() != 1 {
		t.Fatalf("batched get made %d requests, want 1", m.RPCCalls.Load())
	}
}

func TestSimKVOverheadDominates(t *testing.T) {
	// The BENU story: per-request overhead makes many small pulls far
	// slower than one batched pull.
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	m := &metrics.Metrics{}
	s := NewSimKV(g, m)
	s.Cost = CommCost{PerMessage: 500 * time.Microsecond}

	start := time.Now()
	for v := graph.VertexID(0); v < 4; v++ {
		s.Get(v)
	}
	single := time.Since(start)

	start = time.Now()
	s.GetBatch([]graph.VertexID{0, 1, 2, 3})
	batched := time.Since(start)

	if single < 3*batched {
		t.Fatalf("per-request overhead not dominant: singles %v vs batch %v", single, batched)
	}
	if m.Snapshot().CommTime == 0 {
		t.Fatal("comm time not recorded")
	}
}
