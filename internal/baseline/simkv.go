package baseline

// SimKV is the simulated external distributed key-value store (Cassandra
// [13]) that the BENU and RADS baselines read the data graph from. The
// paper's finding is that such a store's per-request overhead — client
// serialisation, network round trip, server lookup — dominates BENU's
// communication time even though its pulled volume is small; Cost models
// exactly that, one message per request, and the byte counters feed the
// same metrics the other engines report. It is a cost model, not a
// storage engine.

import (
	"repro/internal/graph"
	"repro/internal/metrics"
)

// SimKV holds the graph's adjacency lists keyed by vertex.
type SimKV struct {
	g       *graph.Graph
	Cost    CommCost // charged once per request: the "large overhead" of Section 1
	Metrics *metrics.Metrics
}

// NewSimKV loads g into the simulated store, with no modelled latency.
func NewSimKV(g *graph.Graph, m *metrics.Metrics) *SimKV {
	return &SimKV{g: g, Metrics: m}
}

// Get returns the adjacency list of v, charging the request to the metrics
// and sleeping for the modelled latency.
func (s *SimKV) Get(v graph.VertexID) []graph.VertexID {
	nb := s.g.Neighbors(v)
	bytes := uint64(len(nb))*4 + 4 // key + adjacency
	s.Metrics.RPCCalls.Add(1)
	s.Metrics.BytesPulled.Add(bytes)
	s.Cost.charge(bytes, 1, s.Metrics)
	return nb
}
