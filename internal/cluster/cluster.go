// Package cluster simulates the paper's shared-nothing k-machine
// deployment (Figure 2) inside one process. The simulation is split into
// two layers so that many queries can execute concurrently on one
// deployment:
//
//   - Cluster is the immutable topology: the data graph, the hash
//     partitioner (ownership is a pure function of the vertex ID, so
//     nothing is built per graph), and the configuration. It is safe for
//     concurrent use and holds no per-query state.
//   - Exec is one query's isolated execution context: a fresh metrics sink
//     and a cold per-machine adjacency cache. Concurrent engine runs each
//     use their own Exec (NewExec), so they never share mutable state; one
//     Exec may carry several runs in sequence. A machine takes its cache
//     table and fetch buffers from pools on its first Want, and Close
//     hands them back cleared, so a run grows neither.
//
// MachineExec is the one contract between the engine and a machine (Graph,
// Owns, Want, Fetch, Neighbors, Release): the adjacency-cache protocol of
// Algorithm 4 lives behind it, not in the engine. Machines communicate
// only through the accounted RPC layer (GetNbrs, StealWork) and the router
// (pushed shuffles), so communication volume —
// the paper's C column — is measured exactly, and an optional latency
// model reproduces communication time.
package cluster

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
)

// LatencyModel injects simulated network cost into every cross-machine
// interaction. Zero values disable injection (unit tests); the benchmark
// harness sets values representative of a 10 Gbps LAN with RPC overhead.
type LatencyModel struct {
	PerMessage time.Duration // request/response round-trip overhead
	PerKB      time.Duration // serialisation + wire time per kilobyte
}

func (l LatencyModel) cost(bytes uint64) time.Duration {
	return l.PerMessage + time.Duration(bytes/1024)*l.PerKB
}

// Config describes a cluster.
type Config struct {
	NumMachines int
	Workers     int // workers per machine
	CacheKind   cache.Kind
	CacheBytes  uint64 // capacity per machine
	Latency     LatencyModel
}

// Cluster is the simulated deployment: a graph, the hash partitioner that
// says which machine owns which vertex, and the configuration. It is built
// in O(1) — nothing is derived from the graph — immutable after New, and
// safe to share between any number of concurrent Execs.
type Cluster struct {
	Graph *graph.Graph
	P     graph.Partitioner
	Cfg   Config
}

// New deploys g on cfg.NumMachines machines.
func New(g *graph.Graph, cfg Config) *Cluster {
	if cfg.NumMachines < 1 {
		cfg.NumMachines = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.CacheBytes == 0 {
		cfg.CacheBytes = g.SizeBytes() * 3 / 10 // paper default: 30% of the graph
	}
	return &Cluster{Graph: g, P: graph.NewPartitioner(cfg.NumMachines), Cfg: cfg}
}

// NumMachines returns the deployment size.
func (c *Cluster) NumMachines() int { return c.Cfg.NumMachines }

// Owner returns the machine owning v.
func (c *Cluster) Owner(v graph.VertexID) int { return c.P.Owner(v) }

// Exec is the execution context of a run, or of several runs in sequence:
// everything one query execution mutates lives here (metrics, adjacency
// caches), so concurrent runs on the same Cluster, each on its own Exec,
// are fully isolated. Create one with NewExec; Close it after its last run
// to hand its cache tables back (an Exec never closed is collected).
type Exec struct {
	Metrics  *metrics.Metrics
	Machines []*MachineExec
	c        *Cluster
}

// MachineExec is one machine's view of the data graph for one query
// execution, and the whole contract between the engine and a machine:
// Graph and Owns for what is replicated or local, Want / Fetch / Neighbors
// / Release for adjacency (Algorithm 4's protocol over the run-private
// cache), GetNbrs for the accounted RPC underneath. The cache's
// single-writer contract is scoped to one run, which is what makes
// concurrent queries race-free: Want, Fetch and Release are called by one
// goroutine with no Neighbors call in flight.
type MachineExec struct {
	ID int
	// g, p and twoStage are copied out of the Cluster: Neighbors runs once
	// per operand of every intersected row and must not chase exec.c.
	g        *graph.Graph
	p        graph.Partitioner
	twoStage bool
	// cache and buf are nil until a two-stage machine's first Want.
	cache cache.Cache
	buf   *fetchBuf
	hits  uint64 // counted by Want since the last Fetch
	exec  *Exec
}

// fetchBuf is a two-stage machine's fetch-stage state, reused from batch
// to batch and, through fetchBufs, from run to run: the batch's misses by
// owner, each v<<32 | the entry the cache reserved for v, and the request
// and response of one RPC.
type fetchBuf struct {
	misses [][]uint64
	vids   []graph.VertexID
	resp   [][]graph.VertexID
}

var fetchBufs = sync.Pool{New: func() any { return new(fetchBuf) }}

// NewExec creates a fresh execution context with zeroed metrics and cold
// per-machine caches.
func (c *Cluster) NewExec() *Exec {
	x := &Exec{Metrics: &metrics.Metrics{}, c: c, Machines: make([]*MachineExec, c.Cfg.NumMachines)}
	for i := range x.Machines {
		m := &MachineExec{ID: i, g: c.Graph, p: c.P, twoStage: c.Cfg.CacheKind.TwoStage(), exec: x}
		if !m.twoStage {
			// Neighbors fills it from every worker at once: it cannot
			// wait for a first Want.
			m.cache = cache.New(c.Cfg.CacheKind, c.Cfg.CacheBytes)
		}
		x.Machines[i] = m
	}
	return x
}

// Close hands every machine's cache table and fetch buffers back to their
// pools, cleared. It must follow the last run on x; a run after it starts
// from cold caches.
func (x *Exec) Close() {
	for _, m := range x.Machines {
		if m.buf != nil {
			cache.Free(m.cache)
			clear(m.buf.resp[:cap(m.buf.resp)]) // pin no graph
			fetchBufs.Put(m.buf)
			m.cache, m.buf = nil, nil
		}
	}
}

// Cfg returns the deployment configuration.
func (x *Exec) Cfg() Config { return x.c.Cfg }

// PushBytes accounts for a pushed (shuffled) message of the given size —
// used by the router when feeding PUSH-JOIN inputs.
func (x *Exec) PushBytes(bytes uint64) {
	x.Metrics.PushMsgs.Add(1)
	x.Metrics.BytesPushed.Add(bytes)
	x.sleep(bytes)
}

// StealBytes accounts for stolen batches of the given size shipped to
// another machine. The shipment costs what a push of that size does, but
// it is load balancing, not a shuffle, so it is counted apart.
func (x *Exec) StealBytes(bytes uint64) {
	x.Metrics.BytesStolen.Add(bytes)
	x.sleep(bytes)
}

// sleep injects the latency model's cost of a message of the given size.
func (x *Exec) sleep(bytes uint64) {
	if d := x.c.Cfg.Latency.cost(bytes); d > 0 {
		start := time.Now()
		time.Sleep(d)
		x.Metrics.CommTimeNs.Add(int64(time.Since(start)))
	}
}

// Graph returns the data graph. The engine reads from it what every
// machine holds a replica of (labels, the hub-bitset index, edge labels of
// adjacency it already pulled) and the adjacency of vertices m Owns;
// remote adjacency goes through Fetch and Neighbors so that communication
// is accounted for.
func (m *MachineExec) Graph() *graph.Graph { return m.g }

// Owns reports whether v, with its adjacency list, resides on m.
func (m *MachineExec) Owns(v graph.VertexID) bool { return m.p.Owner(v) == m.ID }

// maxRPCBatch caps the number of vertices per GetNbrs call; Fetch
// aggregates requests up to this size (the paper's "merged RPCs sent in
// bulk", Remark 4.1).
const maxRPCBatch = 8192

// GetNbrs is the pulling RPC (Section 4.1): machine m requests the
// adjacency lists of vertices owned by machine target, and the response,
// one list per vertex, is appended to dst. It panics for a vertex target
// does not own — adjacency is stored on exactly one machine, and a read
// that bypasses the owner would go unaccounted. The response slices alias
// the target's CSR storage (the in-process analogue of a received buffer);
// byte and time accounting covers both directions.
func (m *MachineExec) GetNbrs(dst [][]graph.VertexID, target int, vids []graph.VertexID) [][]graph.VertexID {
	respBytes := uint64(0)
	for _, v := range vids {
		if m.p.Owner(v) != target {
			panic(fmt.Sprintf("cluster: GetNbrs(%d) for vertex %d, which machine %d owns", target, v, m.p.Owner(v)))
		}
		nb := m.g.Neighbors(v)
		dst = append(dst, nb)
		respBytes += uint64(len(nb)) * 4
	}
	reqBytes := uint64(len(vids)) * 4
	x := m.exec
	x.Metrics.RPCCalls.Add(1)
	x.Metrics.BytesPulled.Add(reqBytes + respBytes)
	x.sleep(reqBytes + respBytes)
	return dst
}

// Want adds a remote vertex v to the current batch's fetch stage (lines
// 1-9 of Algorithm 4): one probe of the cache seals v if it is cached (a
// hit) or reserves its entry for Fetch (a miss); a vertex the batch wanted
// before costs nothing more. Under a cache kind that skips the two-stage
// protocol (Cncr-LRU) Want does nothing and Neighbors pulls on demand.
func (m *MachineExec) Want(v graph.VertexID) {
	if !m.twoStage {
		return
	}
	if m.buf == nil {
		cfg := m.exec.c.Cfg
		m.cache = cache.New(cfg.CacheKind, cfg.CacheBytes)
		m.buf = fetchBufs.Get().(*fetchBuf)
		if k := cfg.NumMachines; len(m.buf.misses) < k {
			m.buf.misses = append(m.buf.misses, make([][]uint64, k-len(m.buf.misses))...)
		}
	}
	switch st, ref := m.cache.Want(v); st {
	case cache.Hit:
		m.hits++
	case cache.Miss:
		o := m.p.Owner(v)
		m.buf.misses[o] = append(m.buf.misses[o], uint64(v)<<32|uint64(ref))
	}
}

// Fetch pulls what the Wants since the last Fetch missed and fills their
// entries: owner by owner, each owner's misses in vertex order, so
// requests are reproducible, in bulk, up to maxRPCBatch vertices per RPC.
// A cache hit is one distinct remote vertex of a batch that was already
// cached, a miss one that was not; both are booked here. Fetch writes the
// cache: no Neighbors call may run concurrently. Once the pooled buffers
// have grown it allocates nothing.
func (m *MachineExec) Fetch() {
	b, x := m.buf, m.exec
	if b == nil {
		return
	}
	if m.hits > 0 {
		x.Metrics.CacheHits.Add(m.hits)
		m.hits = 0
	}
	for owner, ms := range b.misses {
		if len(ms) == 0 {
			continue
		}
		x.Metrics.CacheMisses.Add(uint64(len(ms)))
		slices.Sort(ms) // by vertex
		for lo := 0; lo < len(ms); lo += maxRPCBatch {
			chunk := ms[lo:min(lo+maxRPCBatch, len(ms))]
			b.vids = b.vids[:0]
			for _, key := range chunk {
				b.vids = append(b.vids, graph.VertexID(key>>32))
			}
			b.resp = m.GetNbrs(b.resp[:0], owner, b.vids)
			for i, nb := range b.resp {
				m.cache.Fill(int32(chunk[i]), nb)
			}
		}
		b.misses[owner] = ms[:0]
	}
}

// Neighbors resolves the adjacency of v during the intersect stage: the
// local graph when m owns v, else the sealed cache entry Fetch left —
// ok=false then means v was never wanted and fetched, which the two-stage
// protocol makes impossible, so callers treat it as a bug. Hits and
// misses were counted by Fetch, not here. Under Cncr-LRU (the Exp-6
// ablation) a remote vertex is instead looked up under the cache's own
// lock, pulled by a one-vertex RPC on a miss and inserted, and ok is
// always true.
func (m *MachineExec) Neighbors(v graph.VertexID) (nbrs []graph.VertexID, ok bool) {
	owner := m.p.Owner(v)
	if owner == m.ID {
		return m.g.Neighbors(v), true
	}
	if m.twoStage {
		if m.cache == nil {
			return nil, false
		}
		return m.cache.Get(v)
	}
	if nb, ok := m.cache.Get(v); ok {
		m.exec.Metrics.CacheHits.Add(1)
		return nb, true
	}
	m.exec.Metrics.CacheMisses.Add(1)
	nb := m.GetNbrs(nil, owner, []graph.VertexID{v})[0]
	m.cache.Insert(v, nb)
	return nb, true
}

// Release unseals what the batch's Wants sealed or reserved. It is a cache
// write: it runs after the intersect stage's barrier.
func (m *MachineExec) Release() {
	if m.cache != nil {
		m.cache.Release()
	}
}
