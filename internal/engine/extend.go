package engine

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/steal"
)

// processExtend runs one PULL-EXTEND over one batch, following Algorithm 4:
// a fetch stage that bulk-pulls the batch's remote vertices into the
// machine's cache, then a parallel intersect stage reading it lock-free
// and zero-copy, and a final Release.
func (r *machineRun) processExtend(e *dataflow.Extend, b *dataflow.Batch) ([]*dataflow.Batch, error) {
	r.fetch(b, e)
	// Release is a cache write; forChunks has joined its workers by then,
	// so the single-writer invariant holds.
	defer r.m.Release()
	pred := r.newCandPred(e)
	if pred.impossible {
		return nil, nil // a constrained label cannot occur in this graph
	}
	return r.forChunks(b, false, func(sc *extendScratch, c *dataflow.Batch) error {
		return r.extendChunk(e, c, &pred, sc)
	})
}

// fetch is the engine's half of the fetch stage: it collects the batch's
// remote vertices that the extends read — each once, ascending, so the
// machine's requests are reproducible — and hands them to the machine,
// which owns the cache protocol. A one-machine run owns every vertex:
// there is nothing to scan for. Rows arrive in runs that share their
// leading slots, so a slot holding the vertex it held in the row before is
// not looked up again.
func (r *machineRun) fetch(b *dataflow.Batch, exts ...*dataflow.Extend) {
	if len(r.ex.eng.ex.Machines) == 1 {
		return
	}
	start := time.Now()
	// The slots the extends read, each once: twins read the same ones.
	var buf [16]int
	slots := buf[:0]
	for _, e := range exts {
		for _, s := range e.ExtSlots {
			if !slices.Contains(slots, s) {
				slots = append(slots, s)
			}
		}
	}
	r.startFetch()
	var prev []graph.VertexID
	for i := 0; i < b.Rows(); i++ {
		row := b.Row(i)
		for _, s := range slots {
			if v := row[s]; prev == nil || prev[s] != v {
				r.want(v)
			}
		}
		prev = row
	}
	r.finishFetch(start)
}

// fetchEnds is the fetch stage of a batch of scanned rungs or middle
// edges: it pulls both ends' lists and the lists the count walks, those of
// the neighbours of the end rungEnds picks on a rung and of both ends on a
// path (walkedEnds). The scanning machine owns row[0], so one Fetch serves
// the batch unless a walked end is remote somewhere (the other end, or a
// stolen batch): its list must arrive before it can name the lists to
// pull, in a second Fetch.
func (r *machineRun) fetchEnds(b *dataflow.Batch) {
	if len(r.ex.eng.ex.Machines) == 1 {
		return
	}
	g := r.m.Graph()
	path := r.ex.st.Separator == dataflow.PathSeparator
	// walked[k] is the end whose neighbours were last wanted in the k-th
	// place of walkedEnds; the first pass wants the owned ends' members.
	walked := [2]graph.VertexID{graph.NoBound, graph.NoBound}
	later := false
	start := time.Now()
	r.startFetch()
	for i := 0; i < b.Rows(); i++ {
		row := b.Row(i)
		if i == 0 || row[0] != b.Row(i - 1)[0] {
			r.want(row[0])
		}
		r.want(row[1])
		for k, v := range walkedEnds(g, row, path) {
			if !r.m.Owns(v) {
				later = true
			} else if v != walked[k] {
				for _, x := range g.Neighbors(v) {
					r.want(x)
				}
				walked[k] = v
			}
		}
	}
	r.finishFetch(start)
	if !later {
		return
	}
	start = time.Now()
	r.startFetch()
	for i := 0; i < b.Rows(); i++ {
		for k, v := range walkedEnds(g, b.Row(i), path) {
			if !r.m.Owns(v) && v != walked[k] {
				// The first Fetch sealed v's list.
				nv, _ := r.m.Neighbors(v)
				for _, x := range nv {
					r.want(x)
				}
				walked[k] = v
			}
		}
	}
	r.finishFetch(start)
}

// walkedEnds returns the ends of a scanned rung or middle edge whose
// neighbours' lists a separator count walks: the one rungEnds picks on a
// rung, both on a path.
func walkedEnds(g *graph.Graph, row []graph.VertexID, path bool) []graph.VertexID {
	if path {
		return row[:2]
	}
	if _, b := rungEnds(g, row); b != row[0] {
		return row[1:2]
	}
	return row[:1]
}

// startFetch empties the fetch stage's set of remote vertices.
func (r *machineRun) startFetch() {
	if r.seen == nil {
		r.seen = map[graph.VertexID]struct{}{}
	}
	clear(r.seen)
	r.remote = r.remote[:0]
}

// want adds v to the fetch stage's set unless the machine owns it.
func (r *machineRun) want(v graph.VertexID) {
	if !r.m.Owns(v) {
		// One hash per occurrence: the set grew iff v is new.
		if r.seen[v] = struct{}{}; len(r.seen) > len(r.remote) {
			r.remote = append(r.remote, v)
		}
	}
}

// finishFetch hands the set to the machine, ascending, and books the
// fetch stage's time from start.
func (r *machineRun) finishFetch(start time.Time) {
	slices.Sort(r.remote)
	r.m.Fetch(r.remote)
	r.ex.eng.ex.Metrics.FetchNs.Add(int64(time.Since(start)))
}

// extendScratch is per-worker reusable state for the intersect stage.
type extendScratch struct {
	sets    []graph.NbrList
	isect   graph.IntersectScratch
	candBuf []graph.VertexID // materialised candidates of a bitset result
	out     *dataflow.Batch
	outs    []*dataflow.Batch
	rowBuf  []graph.VertexID
	gt      *groupTable // worker-local group counts of a grouped counting run
	// pairSets holds the two candidate sets of a pair tail's row as the
	// count kernels read them, pair what each was resolved from
	// (countPair).
	pairSets [2]graph.NbrList
	pair     [2]pairSet
	// wedges and touched are a dense per-vertex counter, sized to the
	// graph, and the entries set: a wedge count's per-c2 counter
	// (wedgeImages), or an edge separator's marks of both ends' lists and
	// its tallies over an end's 2-hop (edgeImages). Each leaves every
	// entry zero when it finishes.
	wedges  []uint32
	touched []graph.VertexID
	// lists holds the lists of one end's neighbours for a rung or path
	// count (sideLists).
	lists [][]graph.VertexID
	// path holds the end a path count has tallied.
	path pathScratch
}

// scratchPool recycles extend scratch between batches and runs: the
// intersect buffers and row buffers grow to their working size once and
// are then reused by every subsequent extend — in steady-state update
// serving (one delta run per query edge per Apply) this removes the
// per-batch scratch allocations entirely.
var scratchPool = sync.Pool{New: func() any { return new(extendScratch) }}

// release hands back what a worker produced on sc — its output batches —
// and returns the drained scratch to the pool: the worker-local group
// table is merged into the run's aggregate, the kernel-dispatch tally into
// the run's metrics. The adjacency and hub-bitset references in sets and
// pair are cleared so the pool never pins a superseded graph snapshot nor
// reuses a pair set in a later batch; a leftover empty output batch goes
// back to the batch pool rather than leaking.
func (r *machineRun) release(sc *extendScratch) []*dataflow.Batch {
	outs := sc.outs
	if sc.out != nil && sc.out.Rows() > 0 {
		outs = append(outs, sc.out)
		sc.out = nil
	}
	if sc.gt != nil {
		sc.gt.flush(r.ex.eng.cfg.Groups)
	}
	r.ex.eng.ex.Metrics.Kernels.AddCounts(sc.isect.Stats)
	sc.isect.Stats = graph.KernelCounts{}
	sc.isect.DropRefs()
	clear(sc.sets)
	sc.sets = sc.sets[:0]
	for i := range sc.pair {
		sc.pair[i].from = nil
	}
	clear(sc.lists)
	clear(sc.pairSets[:])
	sc.out.Recycle()
	sc.out, sc.outs, sc.gt = nil, nil, nil
	scratchPool.Put(sc)
	return outs
}

// chunkWorker is one worker's share of a forChunks fan-out: the chunks
// bound to it up front, and what it hands back. The slots live on the
// machineRun and are reused from batch to batch — a counting query
// allocates so little that per-batch fan-out state would show in its
// bytes per request.
type chunkWorker struct {
	own  []*dataflow.Batch
	outs []*dataflow.Batch
	err  error
}

// minChunkRows is the batch rows forChunks needs per chunk it cuts: a
// batch of fewer rows — a pinned delta edge, a short top-k batch — is one
// chunk, run on the calling goroutine, since starting workers would cost
// more than the rows.
const minChunkRows = 8

// forChunks is the intersect stage's fan-out (lines 10-21 of Algorithm 4,
// with the chunk-level intra-machine work stealing of Section 5.3): it
// splits b into at most four chunks per worker and one per minChunkRows
// rows, and applies fn to each exactly once, across the machine's workers
// under the run's LoadBalance strategy; a stage that counts wedges is
// chunked only where row[0] changes (SplitRuns). Every worker
// that gets a chunk works on one pooled scratch — carrying a group table
// when grouped — which is released when the worker runs dry. It returns
// the output batches the workers left on their scratches and the first
// error; a worker stops at its first error. All workers have returned
// when forChunks does.
func (r *machineRun) forChunks(b *dataflow.Batch, grouped bool, fn func(sc *extendScratch, c *dataflow.Batch) error) ([]*dataflow.Batch, error) {
	eng := r.ex.eng
	workers := eng.ex.Cfg().Workers
	n := max(1, min(workers*4, (b.Rows()+minChunkRows-1)/minChunkRows))
	var chunks []*dataflow.Batch
	if r.ex.byVertex {
		chunks = b.SplitRuns(n)
	} else {
		chunks = b.SplitRows(n)
	}
	if workers == 1 || len(chunks) <= 1 {
		cw := chunkWorker{own: chunks}
		r.drain(0, &cw, nil, grouped, fn)
		return cw.outs, cw.err
	}
	if r.fan == nil {
		r.fan = make([]chunkWorker, workers)
	}
	var pool *steal.Pool
	if eng.cfg.LoadBalance == LBSteal {
		r.batchNo++
		pool = steal.NewPool(workers, int64(r.m.ID)<<20|int64(r.batchNo))
		for i, c := range chunks {
			pool.Deques[i%workers].Push(c)
		}
	} else {
		// Static round-robin (HUGE-NOSTL) or pivot-vertex placement
		// (HUGE-RGP): chunks are bound to workers up front; skew on hub
		// vertices goes unbalanced, which is what Exp-8 measures.
		for i, c := range chunks {
			w := i % workers
			if eng.cfg.LoadBalance == LBPivot {
				w = int(c.Row(0)[0]) % workers
			}
			r.fan[w].own = append(r.fan[w].own, c)
		}
	}
	r.fanWG.Add(workers)
	for w := range r.fan {
		go func() {
			defer r.fanWG.Done()
			r.drain(w, &r.fan[w], pool, grouped, fn)
		}()
	}
	r.fanWG.Wait()
	var outs []*dataflow.Batch
	var err error
	for w := range r.fan {
		cw := &r.fan[w]
		outs = append(outs, cw.outs...)
		if err == nil {
			err = cw.err
		}
		clear(cw.own)
		*cw = chunkWorker{own: cw.own[:0]}
	}
	return outs, err
}

// drain is worker w of forChunks: it applies fn to the chunks bound to it,
// then to whatever the steal pool (nil without stealing) yields, on one
// scratch taken at its first chunk.
func (r *machineRun) drain(w int, cw *chunkWorker, pool *steal.Pool, grouped bool, fn func(sc *extendScratch, c *dataflow.Batch) error) {
	var sc *extendScratch
	for i := 0; cw.err == nil; i++ {
		var c *dataflow.Batch
		if i < len(cw.own) {
			c = cw.own[i]
		} else if pool == nil {
			break
		} else if task, ok, stole := pool.Next(w); ok {
			if stole {
				r.ex.eng.ex.Metrics.StealsIntra.Add(1)
			}
			c = task.(*dataflow.Batch)
		} else {
			break
		}
		if sc == nil {
			sc = scratchPool.Get().(*extendScratch)
			if grouped {
				sc.gt = getGroupTable()
			}
		}
		cw.err = fn(sc, c)
	}
	if sc != nil {
		cw.outs = r.release(sc)
	}
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
	p := candPred{e: e, g: r.m.Graph(), delta: r.ex.eng.cfg.DeltaEdges}
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
func (r *machineRun) gatherOperands(e *dataflow.Extend, row []graph.VertexID, g *graph.Graph, hubMin int, sc *extendScratch) (ok bool, err error) {
	lo, hi := candidateRange(e.NewFilters, row)
	sc.sets = sc.sets[:0]
	if lo >= hi {
		return false, nil
	}
	for _, s := range e.ExtSlots {
		nb, fetched := r.m.Neighbors(row[s])
		if !fetched {
			return false, fmt.Errorf("engine: vertex %d missing from cache during intersect (two-stage protocol violated)", row[s])
		}
		nset := graph.NbrList{List: nb}
		// hubMin is the snapshot's hub threshold, and the length check is
		// exact — only vertices at or above it carry bitsets — so non-hub
		// resolutions never pay even a map lookup, and graphs without
		// hub-sized lists never build the index at all.
		if len(nb) >= hubMin {
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
func (r *machineRun) extendChunk(e *dataflow.Extend, c *dataflow.Batch, pred *candPred, sc *extendScratch) error {
	outWidth := len(e.OutLayout)
	maxRows := r.ex.eng.cfg.BatchRows
	if sc.out == nil {
		sc.out = dataflow.GetBatch(outWidth, maxRows)
	}
	hubMin := pred.g.HubMinDegree()
	for i := 0; i < c.Rows(); i++ {
		row := c.Row(i)
		ok, err := r.gatherOperands(e, row, pred.g, hubMin, sc)
		if err != nil {
			return err
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
	return nil
}
