package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/steal"
)

// maxRPCBatch caps the number of vertices per GetNbrs call; the fetch stage
// aggregates requests up to this size (the paper's "merged RPCs sent in
// bulk", Remark 4.1).
const maxRPCBatch = 8192

// processExtend runs one PULL-EXTEND over one batch, following Algorithm 4:
// a fetch stage that collects, deduplicates and bulk-pulls the batch's
// remote vertices into the cache (sealing them), then a parallel intersect
// stage with lock-free zero-copy cache reads, and a final Release.
//
// With a cache kind whose TwoStage() is false (Cncr-LRU, the Exp-6
// ablation), the fetch stage is skipped and workers pull on demand during
// intersection through the locked cache.
func (r *machineRun) processExtend(e *dataflow.Extend, b *dataflow.Batch) ([]*dataflow.Batch, error) {
	eng := r.ex.eng
	twoStage := eng.ex.Cfg().CacheKind.TwoStage()
	if twoStage {
		if err := r.fetchStage(e, b); err != nil {
			return nil, err
		}
	}
	outs, err := r.intersectStage(e, b, twoStage)
	if twoStage {
		// Release is a cache write; it runs after the intersect barrier, so
		// the single-writer invariant holds.
		r.m.Cache.Release()
	}
	return outs, err
}

// fetchStage scans the batch for remote vertices, seals the cached ones and
// bulk-fetches the rest (lines 1-9 of Algorithm 4). A one-machine run owns
// every vertex, so there is nothing to scan for.
func (r *machineRun) fetchStage(e *dataflow.Extend, b *dataflow.Batch) error {
	eng := r.ex.eng
	if len(eng.ex.Machines) == 1 {
		return nil
	}
	start := time.Now()
	defer func() { eng.ex.Metrics.FetchNs.Add(int64(time.Since(start))) }()

	part := r.m.Part
	var seen map[graph.VertexID]struct{} // allocated at the first remote vertex
	for i := 0; i < b.Rows(); i++ {
		row := b.Row(i)
		for _, s := range e.ExtSlots {
			v := row[s]
			if part.Owns(v) {
				continue
			}
			if seen == nil {
				seen = map[graph.VertexID]struct{}{}
			}
			seen[v] = struct{}{}
		}
	}
	if len(seen) == 0 {
		return nil
	}
	byOwner := map[int][]graph.VertexID{}
	for v := range seen {
		if r.m.Cache.Contains(v) {
			eng.ex.Metrics.CacheHits.Add(1)
			r.m.Cache.Seal(v)
		} else {
			eng.ex.Metrics.CacheMisses.Add(1)
			o := eng.ex.Owner(v)
			byOwner[o] = append(byOwner[o], v)
		}
	}
	// Deterministic request order helps tests; sort each owner's list.
	for owner, vids := range byOwner {
		slices.Sort(vids)
		for lo := 0; lo < len(vids); lo += maxRPCBatch {
			hi := lo + maxRPCBatch
			if hi > len(vids) {
				hi = len(vids)
			}
			chunk := vids[lo:hi]
			nbrs := r.m.GetNbrs(owner, chunk)
			for i, v := range chunk {
				r.m.Cache.Insert(v, nbrs[i])
			}
		}
	}
	return nil
}

// extendScratch is per-worker reusable state for the intersect stage.
type extendScratch struct {
	sets    []graph.NbrList
	isect   graph.IntersectScratch
	candBuf []graph.VertexID // materialised candidates of a bitset result
	out     *dataflow.Batch
	outs    []*dataflow.Batch
	rowBuf  []graph.VertexID
	missErr error
}

// scratchPool recycles extend scratch between batches and runs: the
// intersect buffers and row buffers grow to their working size once and
// are then reused by every subsequent extend — in steady-state update
// serving (one delta run per query edge per Apply) this removes the
// per-batch scratch allocations entirely.
var scratchPool = sync.Pool{New: func() any { return new(extendScratch) }}

// release returns a drained scratch to the pool, flushing its per-worker
// kernel-dispatch tally into the run's shared metrics sink. The adjacency
// and hub-bitset references in sets are cleared so the pool never pins a
// superseded graph snapshot; a leftover empty output batch (closeScratch
// moves out the non-empty ones) goes back to the batch pool rather than
// leaking.
func (sc *extendScratch) release(k *metrics.Kernels) {
	k.AddCounts(sc.isect.Stats)
	sc.isect.Stats = graph.KernelCounts{}
	sc.isect.DropRefs()
	clear(sc.sets)
	sc.sets = sc.sets[:0]
	sc.out.Recycle()
	sc.out, sc.outs, sc.missErr = nil, nil, nil
	scratchPool.Put(sc)
}

// intersectStage performs the multiway intersections (lines 10-21 of
// Algorithm 4) in parallel across the machine's workers, with chunk-level
// intra-machine work stealing per Section 5.3.
func (r *machineRun) intersectStage(e *dataflow.Extend, b *dataflow.Batch, twoStage bool) ([]*dataflow.Batch, error) {
	eng := r.ex.eng
	workers := eng.ex.Cfg().Workers
	chunks := b.SplitRows(workers * 4)
	if len(chunks) == 0 {
		return nil, nil
	}
	if workers == 1 || len(chunks) == 1 {
		sc := scratchPool.Get().(*extendScratch)
		for _, c := range chunks {
			r.extendChunk(e, c, twoStage, sc)
		}
		outs, err := closeScratch(sc), sc.missErr
		sc.release(&eng.ex.Metrics.Kernels)
		return outs, err
	}

	scratches := make([]*extendScratch, workers)
	for i := range scratches {
		scratches[i] = scratchPool.Get().(*extendScratch)
	}
	var wg sync.WaitGroup
	switch eng.cfg.LoadBalance {
	case LBSteal:
		r.batchNo++
		pool := steal.NewPool(workers, int64(r.m.ID)<<20|int64(r.batchNo))
		for i, c := range chunks {
			pool.Deques[i%workers].Push(c)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for {
					task, ok, stole := pool.Next(w)
					if !ok {
						return
					}
					if stole {
						eng.ex.Metrics.StealsIntra.Add(1)
					}
					r.extendChunk(e, task.(*dataflow.Batch), twoStage, scratches[w])
				}
			}(w)
		}
	default:
		// Static round-robin (HUGE-NOSTL) or pivot-vertex placement
		// (HUGE-RGP): chunks are bound to workers up front; skew on hub
		// vertices goes unbalanced, which is what Exp-8 measures.
		assign := make([][]*dataflow.Batch, workers)
		for i, c := range chunks {
			w := i % workers
			if eng.cfg.LoadBalance == LBPivot && c.Rows() > 0 {
				w = int(c.Row(0)[0]) % workers
			}
			assign[w] = append(assign[w], c)
		}
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, c := range assign[w] {
					r.extendChunk(e, c, twoStage, scratches[w])
				}
			}(w)
		}
	}
	wg.Wait()
	var outs []*dataflow.Batch
	var err error
	for _, sc := range scratches {
		outs = append(outs, closeScratch(sc)...)
		if sc.missErr != nil && err == nil {
			err = sc.missErr
		}
		sc.release(&eng.ex.Metrics.Kernels)
	}
	return outs, err
}

func closeScratch(sc *extendScratch) []*dataflow.Batch {
	if sc.out != nil && sc.out.Rows() > 0 {
		sc.outs = append(sc.outs, sc.out)
		sc.out = nil
	}
	return sc.outs
}

// candPred is the one candidate predicate shared by every PULL-EXTEND
// path — materialising, compressed-counting, and verify: the target
// vertex-label constraint, the per-slot edge-label constraints, and the
// delta-mode old-edge restriction all evaluate here, so vertex- and
// edge-label filtering share a single predicate pipeline instead of two
// bolted-on branches. Injectivity stays with the callers (it differs
// between the extend and verify shapes); symmetry-breaking orders never
// reach a per-candidate test — they narrow the operands (candidateRange).
type candPred struct {
	e      *dataflow.Extend
	g      *graph.Graph
	labels []graph.LabelID // target vertex-label check (nil = none)
	// edgeSlots/edgeWants hold the ext slots with a live edge-label check.
	edgeSlots []int
	edgeWants []graph.LabelID
	delta     *graph.EdgeSet
	// impossible marks a constraint no candidate can satisfy on this graph
	// (a non-zero label on an unlabelled dimension): the whole extend
	// yields nothing.
	impossible bool
}

func (r *machineRun) newCandPred(e *dataflow.Extend) candPred {
	p := candPred{e: e, g: r.m.Part.Graph(), delta: r.ex.eng.cfg.DeltaEdges}
	if e.TargetLabel >= 0 {
		if p.g.Labeled() {
			p.labels = p.g.Labels()
		} else if e.TargetLabel != 0 {
			p.impossible = true
		}
	}
	for i, want := range e.EdgeLabels {
		if want < 0 {
			continue
		}
		if !p.g.EdgeLabeled() {
			if want != 0 {
				p.impossible = true
			}
			continue // every edge implicitly carries label 0
		}
		p.edgeSlots = append(p.edgeSlots, e.ExtSlots[i])
		p.edgeWants = append(p.edgeWants, graph.LabelID(want))
	}
	return p
}

// trivial reports that ok always returns true — the compressed-counting
// fast path may then count candidates without per-candidate checks.
func (p *candPred) trivial() bool {
	return p.labels == nil && len(p.edgeSlots) == 0 && len(p.e.OldEdgeSlots) == 0 && !p.impossible
}

// ok applies the shared label/delta predicate to candidate v (for a verify
// extend, v is the already-matched verified vertex). Edge labels are read
// off the local graph snapshot: they ride along the adjacency the engine
// already pulled and accounted for. The old-edge check rejects closed data
// edges (row[s], v) that belong to the run's pinned delta set: the query
// edges at positions before the pinned one are restricted to older-epoch
// edges, which is what makes the per-pinned-edge scans a disjoint
// partition of the new matches.
func (p *candPred) ok(row []graph.VertexID, v graph.VertexID) bool {
	if p.labels != nil && int(p.labels[v]) != p.e.TargetLabel {
		return false
	}
	for i, s := range p.edgeSlots {
		if p.g.EdgeLabel(row[s], v) != p.edgeWants[i] {
			return false
		}
	}
	for _, s := range p.e.OldEdgeSlots {
		if p.delta.Has(row[s], v) {
			return false
		}
	}
	return true
}

// neighborsFor resolves adjacency during intersection: local partition,
// sealed cache entry (two-stage), or an on-demand locked fetch (Cncr-LRU).
func (r *machineRun) neighborsFor(v graph.VertexID, twoStage bool) ([]graph.VertexID, error) {
	if twoStage {
		nb, ok := r.m.NeighborsOf(v)
		if !ok {
			return nil, fmt.Errorf("engine: vertex %d missing from cache during intersect (two-stage protocol violated)", v)
		}
		return nb, nil
	}
	return r.m.FetchDirect(v), nil
}

// hubMinFor resolves the hub-bitset threshold of the current run: 0 when
// adaptive intersection is disabled (Config.NoAdaptive — the legacy
// merge/gallop kernels, kept as the bench8 baseline), otherwise the
// snapshot's threshold. The length check `len(nb) >= hubMin` is exact —
// only vertices at or above the threshold carry bitsets — so non-hub
// resolutions never pay even a map lookup, and graphs without hub-sized
// lists never build the index at all.
func (r *machineRun) hubMinFor(g *graph.Graph) int {
	if r.ex.eng.cfg.NoAdaptive {
		return 0
	}
	return g.HubMinDegree()
}

// candidateRange turns an extend's symmetry-breaking filters into the
// half-open range [lo, hi) its candidates must fall in for this row:
// NewLess bounds them above by the matched vertex, otherwise below. An
// extend without filters gets (0, graph.NoBound), the whole universe.
// Operands are narrowed to the range before they are intersected, so the
// filters need no per-candidate test afterwards — and the collision
// subtraction of the counting path sees only in-range vertices.
func candidateRange(filters []dataflow.NewFilter, row []graph.VertexID) (lo, hi graph.VertexID) {
	hi = graph.NoBound
	for _, f := range filters {
		if x := row[f.Slot]; f.NewLess {
			hi = min(hi, x)
		} else {
			lo = max(lo, x+1) // vertex IDs stay below NoBound, so no wrap
		}
	}
	return lo, hi
}

// gatherOperands resolves the extend's operands for one row into sc.sets:
// each adjacency list, plus the vertex's packed hub bitset when the list is
// hub-sized, narrowed to the row's candidate range. ok is false when an
// operand is empty there — the row has no candidate. Hub bitsets are
// derived index metadata over the pinned snapshot — like vertex labels,
// they are replicated on every simulated machine, so consulting one for a
// pulled remote list moves no extra adjacency bytes.
func (r *machineRun) gatherOperands(e *dataflow.Extend, row []graph.VertexID, twoStage bool, g *graph.Graph, hubMin int, sc *extendScratch) (ok bool, err error) {
	lo, hi := candidateRange(e.NewFilters, row)
	sc.sets = sc.sets[:0]
	if lo >= hi {
		return false, nil
	}
	for _, s := range e.ExtSlots {
		nb, err := r.neighborsFor(row[s], twoStage)
		if err != nil {
			return false, err
		}
		nset := graph.NbrList{List: nb}
		if hubMin > 0 && len(nb) >= hubMin {
			nset.Bits = g.HubBitset(row[s])
		}
		if nset = nset.Within(lo, hi); len(nset.List) == 0 {
			return false, nil
		}
		sc.sets = append(sc.sets, nset)
	}
	return true, nil
}

// extendChunk applies the extend to every row of one chunk, appending
// results to the worker's scratch batches. The symmetry-breaking orders
// are applied up front, by narrowing the operands (candidateRange); the
// shared candidate predicate (vertex label, edge labels, delta old-edge
// restriction) and injectivity are checked per candidate.
func (r *machineRun) extendChunk(e *dataflow.Extend, c *dataflow.Batch, twoStage bool, sc *extendScratch) {
	eng := r.ex.eng
	outWidth := len(e.OutLayout)
	maxRows := eng.cfg.BatchRows
	if sc.out == nil {
		sc.out = dataflow.GetBatch(outWidth, maxRows)
	}
	pred := r.newCandPred(e)
	if pred.impossible {
		return // a constrained label cannot occur in this graph
	}
	hubMin := r.hubMinFor(pred.g)
	for i := 0; i < c.Rows(); i++ {
		row := c.Row(i)
		ok, err := r.gatherOperands(e, row, twoStage, pred.g, hubMin, sc)
		if err != nil {
			sc.missErr = err
			return
		}
		if !ok {
			continue
		}
		cand := graph.IntersectAdaptive(sc.sets, &sc.isect)
		if e.IsVerify() {
			// Probe-only: the verified vertex is already matched, so the
			// adaptive membership test (bitset or binary search) replaces
			// any need for the candidate list itself.
			if cand.Contains(row[e.VerifySlot]) && pred.ok(row, row[e.VerifySlot]) {
				if sc.out.Rows() >= maxRows {
					sc.outs = append(sc.outs, sc.out)
					sc.out = dataflow.GetBatch(outWidth, maxRows)
				}
				sc.out.Append(row)
			}
			continue
		}
		// This path builds output rows, so a packed bitset result is
		// materialised (one pass over its set bits) into the worker's
		// candidate buffer; a list result is consumed in place.
		candList := cand.List
		if cand.Bits != nil {
			sc.candBuf = cand.AppendTo(sc.candBuf[:0])
			candList = sc.candBuf
		}
	candidates:
		for _, v := range candList {
			// Shared label/delta predicate on the newly matched vertex.
			if !pred.ok(row, v) {
				continue
			}
			// Injectivity: the new vertex must differ from every matched one.
			for _, u := range row {
				if u == v {
					continue candidates
				}
			}
			if sc.out.Rows() >= maxRows {
				sc.outs = append(sc.outs, sc.out)
				sc.out = dataflow.GetBatch(outWidth, maxRows)
			}
			sc.rowBuf = append(sc.rowBuf[:0], row...)
			sc.rowBuf = append(sc.rowBuf, v)
			sc.out.Append(sc.rowBuf)
		}
	}
}
