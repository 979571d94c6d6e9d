package baseline

import (
	"sync"

	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
)

// BENUConfig parameterises the BENU baseline (Wang et al. [84]): each
// machine embarrassingly parallelises a sequential DFS backtracking program
// over its share of pivot vertices, pulling every adjacency list it needs
// from the external key-value store through a local bounded LRU cache.
type BENUConfig struct {
	NumMachines int
	Workers     int
	CacheBytes  uint64 // per worker task; BENU shares a traditional cache per machine
	Store       *SimKV
}

// RunBENU executes q over g and returns the match count. DFS keeps memory
// tiny (one partial match per worker) but, as the paper observes, pays the
// store's per-pull overhead and undersubscribes the CPU.
func RunBENU(g *graph.Graph, q *query.Query, cfg BENUConfig, m *metrics.Metrics) uint64 {
	if cfg.NumMachines < 1 {
		cfg.NumMachines = 1
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.Store == nil {
		cfg.Store = NewSimKV(g, m)
	}
	order := plan.MatchingOrder(q)
	pos := make([]int, q.NumVertices())
	for i, v := range order {
		pos[v] = i
	}
	part := graph.NewPartitioner(cfg.NumMachines)

	var total sync.WaitGroup
	counts := make([]uint64, cfg.NumMachines*cfg.Workers)
	for mi := 0; mi < cfg.NumMachines; mi++ {
		// One shared locked LRU per machine, as BENU uses (Section 4.4:
		// "a traditional cache structure shared by all workers").
		c := cache.New(cache.CncrLRU, cfg.CacheBytes)
		for w := 0; w < cfg.Workers; w++ {
			total.Add(1)
			go func(mi, w int) {
				defer total.Done()
				b := &benuWorker{
					q: q, g: g, order: order, pos: pos, store: cfg.Store, cache: c, metrics: m,
					assign: make([]graph.VertexID, q.NumVertices()),
					used:   map[graph.VertexID]bool{},
				}
				// Pivot vertices: machine mi owns v with Owner(v)==mi; its
				// workers stripe them.
				stripe := 0
				for v := 0; v < g.NumVertices(); v++ {
					if part.Owner(graph.VertexID(v)) != mi {
						continue
					}
					if stripe%cfg.Workers == w && labelOK(g, q, order[0], graph.VertexID(v)) {
						b.matchFrom(graph.VertexID(v))
					}
					stripe++
				}
				counts[mi*cfg.Workers+w] = b.count
			}(mi, w)
		}
	}
	total.Wait()
	var sum uint64
	for _, c := range counts {
		sum += c
	}
	m.Results.Add(sum)
	return sum
}

type benuWorker struct {
	q       *query.Query
	g       *graph.Graph // label metadata only; adjacency goes through the store
	order   []int
	pos     []int
	store   *SimKV
	cache   cache.Cache
	metrics *metrics.Metrics
	assign  []graph.VertexID
	used    map[graph.VertexID]bool
	scratch []graph.IntersectScratch
	count   uint64
}

func (b *benuWorker) nbrs(v graph.VertexID) []graph.VertexID {
	if nb, ok := b.cache.Get(v); ok {
		b.metrics.CacheHits.Add(1)
		return nb
	}
	b.metrics.CacheMisses.Add(1)
	nb := b.store.Get(v)
	b.cache.Insert(v, nb)
	return nb
}

func (b *benuWorker) matchFrom(pivot graph.VertexID) {
	b.assign[b.order[0]] = pivot
	b.used[pivot] = true
	if b.scratch == nil {
		b.scratch = make([]graph.IntersectScratch, b.q.NumVertices())
	}
	b.rec(1)
	delete(b.used, pivot)
}

func (b *benuWorker) rec(depth int) {
	if depth == b.q.NumVertices() {
		b.count++
		return
	}
	v := b.order[depth]
	var lists [][]graph.VertexID
	for _, u := range b.q.Adj(v) {
		if b.pos[u] < depth {
			lists = append(lists, b.nbrs(b.assign[u]))
		}
	}
	cands := graph.IntersectMany(lists, &b.scratch[depth])
	// Copy: deeper pulls may recycle the scratch (and evict cache entries).
	own := append([]graph.VertexID(nil), cands...)
	for _, c := range own {
		if b.used[c] || !labelOK(b.g, b.q, v, c) || !edgeLabelsOKAssign(b.g, b.q, v, c, b.assign, b.pos, depth) {
			continue
		}
		ok := true
		for _, o := range b.q.Orders() {
			switch {
			case o.A == v && b.pos[o.B] < depth:
				ok = b.assign[o.B] > c
			case o.B == v && b.pos[o.A] < depth:
				ok = b.assign[o.A] < c
			default:
				continue
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		b.assign[v] = c
		b.used[c] = true
		b.rec(depth + 1)
		delete(b.used, c)
	}
}
