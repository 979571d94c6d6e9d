package baseline

import (
	"repro/internal/cache"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
)

// RADSConfig parameterises the RADS baseline (Ren et al. [66]):
// star-expand-and-verify with pulling communication, left-deep star plans,
// and the region-group heuristic — initial pivot roots are processed in
// fixed-size groups to cap (but not bound) memory.
type RADSConfig struct {
	NumMachines    int
	RegionGroup    int // pivot roots per group; 0 = one group with everything
	CacheBytes     uint64
	MemLimitTuples int64
	Store          *SimKV // pull source; nil builds a zero-latency one
}

// RunRADS enumerates q on g with RADS's plan and execution model.
func RunRADS(g *graph.Graph, q *query.Query, cfg RADSConfig, m *metrics.Metrics) (uint64, error) {
	if cfg.NumMachines < 1 {
		cfg.NumMachines = 1
	}
	if cfg.Store == nil {
		cfg.Store = NewSimKV(g, m)
	}
	p := plan.RADSPlan(q)
	units := radsUnits(p.Root)
	guard := &memGuard{m: m, limit: cfg.MemLimitTuples}
	part := graph.NewPartitioner(cfg.NumMachines)

	// The first unit's root vertices are the pivots; region groups split
	// them so each round's expansion is (heuristically) smaller.
	root0, _, _ := q.StarRoot(units[0])
	_ = root0
	pivots := make([]graph.VertexID, 0, g.NumVertices())
	for u := 0; u < g.NumVertices(); u++ {
		pivots = append(pivots, graph.VertexID(u))
	}
	groupSize := cfg.RegionGroup
	if groupSize <= 0 {
		groupSize = len(pivots)
	}

	var total uint64
	for lo := 0; lo < len(pivots); lo += groupSize {
		hi := lo + groupSize
		if hi > len(pivots) {
			hi = len(pivots)
		}
		n, err := radsGroup(g, q, part, units, pivots[lo:hi], cfg, guard, m)
		if err != nil {
			return 0, err
		}
		total += n
	}
	m.Results.Add(total)
	return total, nil
}

func radsUnits(n *plan.Node) []uint32 {
	if n.IsLeaf() {
		return []uint32{n.Edges}
	}
	return append(radsUnits(n.Left), n.Right.Edges)
}

func radsGroup(g *graph.Graph, q *query.Query, part graph.Partitioner, units []uint32,
	pivots []graph.VertexID, cfg RADSConfig, guard *memGuard, m *metrics.Metrics) (uint64, error) {
	k := part.NumMachines()
	// Per-machine locked LRU caches for pulled adjacency.
	caches := make([]cache.Cache, k)
	for i := range caches {
		caches[i] = cache.New(cache.CncrLRU, cfg.CacheBytes)
	}
	pull := func(mi int, v graph.VertexID) []graph.VertexID {
		if part.Owner(v) == mi {
			return g.Neighbors(v)
		}
		if nb, ok := caches[mi].Get(v); ok {
			m.CacheHits.Add(1)
			return nb
		}
		m.CacheMisses.Add(1)
		nb := cfg.Store.Get(v)
		caches[mi].Insert(v, nb)
		return nb
	}

	// Materialise the first star from the group's pivots.
	root, leaves, _ := q.StarRoot(units[0])
	layout := append([]int{root}, leaves...)
	cur := newRel(k, layout)
	row := make([]graph.VertexID, len(layout))
	var produced int64
	var expand func(nbrs []graph.VertexID, depth, dest int) error
	expand = func(nbrs []graph.VertexID, depth, dest int) error {
		if depth == len(layout) {
			cur.rows[dest] = append(cur.rows[dest], row...)
			produced++
			if guard.limit > 0 && guard.m.LiveTuples()+produced > guard.limit {
				return ErrOOM
			}
			return nil
		}
		v := layout[depth]
		for _, c := range nbrs {
			if containsVal(row[:depth], c) || !labelOK(g, q, v, c) ||
				!edgeLabelsOK(g, q, layout[:depth], row[:depth], v, c) ||
				!checkOrderWith(q, layout[:depth], row[:depth], v, c) {
				continue
			}
			row[depth] = c
			if err := expand(nbrs, depth+1, dest); err != nil {
				return err
			}
		}
		return nil
	}
	for _, u := range pivots {
		if !labelOK(g, q, root, u) || !checkOrderWith(q, nil, nil, root, u) {
			continue
		}
		row[0] = u
		dest := part.Owner(u)
		if err := expand(g.Neighbors(u), 1, dest); err != nil {
			return 0, err
		}
	}
	if err := guard.add(produced); err != nil {
		return 0, err
	}

	// Expand-and-verify round per remaining star unit (BFS, full
	// materialisation — RADS's plans are why it underperforms, Exp-1).
	for _, em := range units[1:] {
		r, ls, _ := q.StarRoot(em)
		// Orient so the root is already matched (guaranteed by RADSPlan).
		if !inLayout(cur.layout, r) {
			if len(ls) == 1 && inLayout(cur.layout, ls[0]) {
				r, ls = ls[0], []int{r}
			} else {
				panic("baseline: RADS star root not matched")
			}
		}
		rootSlot := cur.slotOf(r)
		var v1, v2 []int
		for _, l := range ls {
			if inLayout(cur.layout, l) {
				v1 = append(v1, l)
			} else {
				v2 = append(v2, l)
			}
		}
		nextLayout := append(append([]int(nil), cur.layout...), v2...)
		next := newRel(k, nextLayout)
		var prod int64
		out := make([]graph.VertexID, len(nextLayout))
		for mi := 0; mi < k; mi++ {
			data := cur.rows[mi]
		rows:
			for i := 0; i+cur.width <= len(data); i += cur.width {
				prow := data[i : i+cur.width]
				nbrs := pull(mi, prow[rootSlot])
				// Verify edges to already-matched leaves (label included).
				for _, l := range v1 {
					lv := prow[cur.slotOf(l)]
					if !graph.ContainsSorted(nbrs, lv) {
						continue rows
					}
					if el := q.EdgeLabelBetween(r, l); el >= 0 && int(g.EdgeLabel(prow[rootSlot], lv)) != el {
						continue rows
					}
				}
				copy(out, prow)
				var rec func(depth int) error
				rec = func(depth int) error {
					if depth == len(nextLayout) {
						next.rows[mi] = append(next.rows[mi], out...)
						prod++
						if guard.limit > 0 && guard.m.LiveTuples()+prod > guard.limit {
							return ErrOOM
						}
						return nil
					}
					v := nextLayout[depth]
					for _, c := range nbrs {
						if containsVal(out[:depth], c) || !labelOK(g, q, v, c) ||
							!edgeLabelsOK(g, q, nextLayout[:depth], out[:depth], v, c) ||
							!checkOrderWith(q, nextLayout[:depth], out[:depth], v, c) {
							continue
						}
						out[depth] = c
						if err := rec(depth + 1); err != nil {
							return err
						}
					}
					return nil
				}
				if err := rec(cur.width); err != nil {
					return 0, err
				}
			}
		}
		guard.m.AddLiveTuples(-cur.totalRows())
		if err := guard.add(prod); err != nil {
			return 0, err
		}
		cur = next
	}
	n := uint64(cur.totalRows())
	guard.m.AddLiveTuples(-cur.totalRows())
	return n, nil
}

func inLayout(layout []int, qv int) bool {
	for _, v := range layout {
		if v == qv {
			return true
		}
	}
	return false
}
