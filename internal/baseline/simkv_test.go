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

func TestSimKVOverheadDominates(t *testing.T) {
	// The BENU story: the per-request overhead, not the bytes pulled, sets
	// the cost, so four small requests take about four times as long as one.
	// A sleep never ends early, but under CPU load it may end a millisecond
	// late: the overhead is long next to that, and each side keeps its
	// fastest of five tries.
	g := graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 0}})
	m := &metrics.Metrics{}
	s := NewSimKV(g, m)
	s.Cost = CommCost{PerMessage: 5 * time.Millisecond}
	fastest := func(requests int) time.Duration {
		best := time.Duration(1 << 62)
		for try := 0; try < 5; try++ {
			start := time.Now()
			for v := 0; v < requests; v++ {
				s.Get(graph.VertexID(v))
			}
			best = min(best, time.Since(start))
		}
		return best
	}
	four, one := fastest(4), fastest(1)
	if four < 3*one {
		t.Fatalf("per-request overhead not dominant: four requests %v vs one %v", four, one)
	}
	if m.Snapshot().CommTime == 0 {
		t.Fatal("comm time not recorded")
	}
}
