package graph

// Partitioning follows the paper's Section 2: the data graph is randomly
// (hash-)partitioned across k machines; each vertex is stored with its full
// adjacency list on exactly one machine. Ownership is a pure function of
// the vertex ID, so a partitioning holds no per-graph state: nothing is
// built, copied or patched when the graph changes. A vertex a machine owns
// is its "local vertex"; anything else is a "remote vertex" whose
// neighbours must be pulled via the GetNbrs RPC (internal/cluster).

// Partitioner maps vertices to machine IDs.
type Partitioner struct {
	k int
}

// NewPartitioner creates a hash partitioner over k machines (k >= 1).
func NewPartitioner(k int) Partitioner {
	if k < 1 {
		panic("graph: partitioner requires k >= 1")
	}
	return Partitioner{k: k}
}

// NumMachines returns k.
func (p Partitioner) NumMachines() int { return p.k }

// Owner returns the machine that stores v with its adjacency list.
func (p Partitioner) Owner(v VertexID) int {
	if p.k == 1 {
		return 0
	}
	// Multiplicative hash so that consecutive IDs (which are degree-correlated
	// in generated graphs) spread across machines — this is the paper's
	// "random partition".
	return int((uint64(v) * 0x9E3779B97F4A7C15 >> 32) % uint64(p.k))
}
