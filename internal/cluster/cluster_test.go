package cluster

import (
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cache"
	"repro/internal/gen"
	"repro/internal/graph"
)

func testCluster(t *testing.T, k int, lat LatencyModel) *Cluster {
	t.Helper()
	g := gen.PowerLaw(200, 3, 1)
	return New(g, Config{NumMachines: k, Workers: 1, CacheKind: cache.LRBU, Latency: lat})
}

func TestNewDefaults(t *testing.T) {
	g := gen.PowerLaw(100, 2, 1)
	c := New(g, Config{})
	if c.NumMachines() != 1 {
		t.Fatalf("machines = %d", c.NumMachines())
	}
	if c.Cfg.CacheBytes != g.SizeBytes()*3/10 {
		t.Fatalf("default cache bytes %d, want 30%% of graph (%d)", c.Cfg.CacheBytes, g.SizeBytes()*3/10)
	}
	x := c.NewExec()
	if len(x.Machines) != 1 || x.Metrics == nil {
		t.Fatalf("exec context incomplete: %+v", x)
	}
}

func TestGetNbrsAccounting(t *testing.T) {
	c := testCluster(t, 3, LatencyModel{})
	x := c.NewExec()
	// Find a vertex on machine 1 and fetch it from machine 0.
	var v graph.VertexID
	found := false
	for u := 0; u < c.Graph.NumVertices(); u++ {
		if c.Owner(graph.VertexID(u)) == 1 && c.Graph.Degree(graph.VertexID(u)) > 0 {
			v, found = graph.VertexID(u), true
			break
		}
	}
	if !found {
		t.Skip("no suitable vertex")
	}
	nbrs := x.Machines[0].GetNbrs(1, []graph.VertexID{v})
	if len(nbrs) != 1 || len(nbrs[0]) != c.Graph.Degree(v) {
		t.Fatalf("GetNbrs returned %v", nbrs)
	}
	s := x.Metrics.Snapshot()
	wantBytes := uint64(4 + 4*c.Graph.Degree(v))
	if s.BytesPulled != wantBytes {
		t.Fatalf("pulled %d bytes, want %d", s.BytesPulled, wantBytes)
	}
	if s.RPCCalls != 1 {
		t.Fatalf("rpc calls %d", s.RPCCalls)
	}
}

func TestLatencyInjected(t *testing.T) {
	c := testCluster(t, 2, LatencyModel{PerMessage: 2 * time.Millisecond})
	x := c.NewExec()
	var v graph.VertexID
	for u := 0; u < c.Graph.NumVertices(); u++ {
		if c.Owner(graph.VertexID(u)) == 1 {
			v = graph.VertexID(u)
			break
		}
	}
	start := time.Now()
	x.Machines[0].GetNbrs(1, []graph.VertexID{v})
	if time.Since(start) < 2*time.Millisecond {
		t.Fatal("latency not injected")
	}
	if x.Metrics.Snapshot().CommTime < 2*time.Millisecond {
		t.Fatal("comm time not recorded")
	}
}

func TestPushBytes(t *testing.T) {
	c := testCluster(t, 2, LatencyModel{})
	x := c.NewExec()
	x.PushBytes(1000)
	s := x.Metrics.Snapshot()
	if s.BytesPushed != 1000 || s.PushMsgs != 1 {
		t.Fatalf("push accounting: %+v", s)
	}
	// A steal shipment is counted apart from the shuffles.
	x.StealBytes(300)
	s = x.Metrics.Snapshot()
	if s.BytesStolen != 300 || s.BytesPushed != 1000 || s.PushMsgs != 1 {
		t.Fatalf("steal accounting: %+v", s)
	}
}

// remoteOf returns a vertex with neighbours that machine m does not own.
func remoteOf(t *testing.T, c *Cluster, m *MachineExec) graph.VertexID {
	t.Helper()
	for u := 0; u < c.Graph.NumVertices(); u++ {
		if v := graph.VertexID(u); !m.Owns(v) && c.Graph.Degree(v) > 0 {
			return v
		}
	}
	t.Fatal("machine owns every vertex")
	return 0
}

// TestOwnsDisjointCover pins the partitioning a Cluster no longer
// materialises: over all vertices the machines' Owns sets are pairwise
// disjoint and together cover the graph.
func TestOwnsDisjointCover(t *testing.T) {
	for _, k := range []int{1, 2, 3, 5} {
		c := testCluster(t, k, LatencyModel{})
		x := c.NewExec()
		owned := make([]int, k)
		for u := 0; u < c.Graph.NumVertices(); u++ {
			v, owners := graph.VertexID(u), 0
			for _, m := range x.Machines {
				if m.Owns(v) {
					owners++
					owned[m.ID]++
					if c.Owner(v) != m.ID {
						t.Fatalf("k=%d: machine %d Owns %d but Owner says %d", k, m.ID, v, c.Owner(v))
					}
				}
			}
			if owners != 1 {
				t.Fatalf("k=%d: vertex %d owned by %d machines", k, v, owners)
			}
		}
		for id, n := range owned {
			if n == 0 {
				t.Fatalf("k=%d: machine %d owns nothing: %v", k, id, owned)
			}
		}
	}
}

// TestGetNbrsRemoteVertexPanics: adjacency is stored on exactly one
// machine, so asking a machine for a vertex it does not own is a bug that
// must not be served (and go unaccounted) from the shared graph.
func TestGetNbrsRemoteVertexPanics(t *testing.T) {
	c := testCluster(t, 2, LatencyModel{})
	x := c.NewExec()
	m0 := x.Machines[0]
	v := remoteOf(t, c, m0) // owned by machine 1
	defer func() {
		if recover() == nil {
			t.Fatal("GetNbrs served a vertex the target does not own")
		}
		if x.Metrics.RPCCalls.Load() != 0 {
			t.Fatal("the refused request was accounted as an RPC")
		}
	}()
	x.Machines[1].GetNbrs(0, []graph.VertexID{v})
}

// TestNeighborsTwoStage: under a two-stage cache kind a remote vertex is
// readable only between Fetch and the eviction that may follow Release,
// and its traffic is counted once, by Fetch.
func TestNeighborsTwoStage(t *testing.T) {
	c := testCluster(t, 2, LatencyModel{})
	x := c.NewExec()
	m0 := x.Machines[0]
	for u := 0; u < c.Graph.NumVertices(); u++ {
		if v := graph.VertexID(u); m0.Owns(v) {
			nb, ok := m0.Neighbors(v)
			if !ok || !slices.Equal(nb, c.Graph.Neighbors(v)) {
				t.Fatalf("local Neighbors(%d) = %v %v", v, nb, ok)
			}
			break
		}
	}
	remote := remoteOf(t, c, m0)
	if _, ok := m0.Neighbors(remote); ok {
		t.Fatal("remote Neighbors succeeded without a Fetch")
	}
	if s := x.Metrics.Snapshot(); s.RPCCalls+s.CacheHits+s.CacheMisses != 0 {
		t.Fatalf("un-fetched read was accounted: %+v", s)
	}
	m0.Fetch([]graph.VertexID{remote})
	nb, ok := m0.Neighbors(remote)
	if !ok || !slices.Equal(nb, c.Graph.Neighbors(remote)) {
		t.Fatalf("fetched Neighbors(%d) = %v %v, want the owner's list", remote, nb, ok)
	}
	m0.Release()
	if s := x.Metrics.Snapshot(); s.RPCCalls != 1 || s.CacheMisses != 1 || s.CacheHits != 0 {
		t.Fatalf("first fetch: %+v, want one RPC and one miss", s)
	}
	// The next batch finds it cached: a hit, sealed, no RPC.
	m0.Fetch([]graph.VertexID{remote})
	if _, ok := m0.Neighbors(remote); !ok {
		t.Fatal("cached vertex unreadable after the second Fetch")
	}
	m0.Release()
	if s := x.Metrics.Snapshot(); s.RPCCalls != 1 || s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Fatalf("second fetch: %+v, want one hit and no further RPC", s)
	}
}

// TestFetchGroupsByOwner: one bulk request per owner, however many
// vertices the batch needs from it.
func TestFetchGroupsByOwner(t *testing.T) {
	c := testCluster(t, 3, LatencyModel{})
	x := c.NewExec()
	m0 := x.Machines[0]
	var remote []graph.VertexID
	owners := map[int]bool{}
	for u := 0; u < c.Graph.NumVertices(); u++ {
		if v := graph.VertexID(u); !m0.Owns(v) {
			remote = append(remote, v)
			owners[c.Owner(v)] = true
		}
	}
	m0.Fetch(remote)
	if s := x.Metrics.Snapshot(); int(s.RPCCalls) != len(owners) || int(s.CacheMisses) != len(remote) {
		t.Fatalf("%d remote vertices of %d owners: %+v", len(remote), len(owners), s)
	}
	for _, v := range remote {
		if nb, ok := m0.Neighbors(v); !ok || !slices.Equal(nb, c.Graph.Neighbors(v)) {
			t.Fatalf("Neighbors(%d) = %v %v after Fetch", v, nb, ok)
		}
	}
}

// TestNeighborsPullsOnDemandCncrLRU: the Exp-6 ablation skips the
// two-stage protocol — Fetch does nothing, Neighbors pulls a missing
// vertex itself and the second read is a hit.
func TestNeighborsPullsOnDemandCncrLRU(t *testing.T) {
	g := gen.PowerLaw(200, 3, 1)
	c := New(g, Config{NumMachines: 2, Workers: 1, CacheKind: cache.CncrLRU})
	x := c.NewExec()
	m0 := x.Machines[0]
	remote := remoteOf(t, c, m0)
	m0.Fetch([]graph.VertexID{remote})
	if s := x.Metrics.Snapshot(); s.RPCCalls+s.CacheHits+s.CacheMisses != 0 {
		t.Fatalf("Fetch is not a no-op under Cncr-LRU: %+v", s)
	}
	nb1, ok1 := m0.Neighbors(remote)
	nb2, ok2 := m0.Neighbors(remote) // served from cache
	if !ok1 || !ok2 || !slices.Equal(nb1, g.Neighbors(remote)) || !slices.Equal(nb2, nb1) {
		t.Fatalf("Neighbors(%d) = %v %v, then %v %v", remote, nb1, ok1, nb2, ok2)
	}
	if s := x.Metrics.Snapshot(); s.RPCCalls != 1 || s.CacheMisses != 1 || s.CacheHits != 1 {
		t.Fatalf("two reads: %+v, want one RPC, one miss, one hit", s)
	}
	// Local vertices bypass everything.
	for u := 0; u < g.NumVertices(); u++ {
		if v := graph.VertexID(u); m0.Owns(v) {
			m0.Neighbors(v)
			break
		}
	}
	if s := x.Metrics.Snapshot(); s.RPCCalls != 1 || s.CacheHits != 1 {
		t.Fatalf("local read was accounted: %+v", s)
	}
}

// TestExecIsolation is the concurrency contract of the refactor: execution
// contexts on one cluster never share metrics or caches.
func TestExecIsolation(t *testing.T) {
	c := testCluster(t, 2, LatencyModel{})
	x1, x2 := c.NewExec(), c.NewExec()
	if x1.Metrics == x2.Metrics {
		t.Fatal("execs share a metrics sink")
	}
	if x1.Machines[0].cache == x2.Machines[0].cache {
		t.Fatal("execs share a cache")
	}
	x1.PushBytes(100)
	if x2.Metrics.BytesPushed.Load() != 0 {
		t.Fatal("metrics leaked across execs")
	}
	// Concurrent traffic on independent execs must be race-free (validated
	// under -race): hammer Fetch/Neighbors from many execs at once.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := c.NewExec().Machines[0]
			for u := 0; u < c.Graph.NumVertices(); u++ {
				if v := graph.VertexID(u); !m.Owns(v) {
					m.Fetch([]graph.VertexID{v})
					m.Neighbors(v)
					m.Release()
				}
			}
		}()
	}
	wg.Wait()
}
