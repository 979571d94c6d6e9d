package engine

import (
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/graph"
)

// countExtend is the compressed form of processExtend (the generic
// compression optimisation [63]): for the final PULL-EXTEND before a
// counting SINK, each input tuple contributes |C| — the intersection of the
// operands narrowed to what the symmetry-breaking orders allow — minus the
// candidates rejected by injectivity; no output rows are built, queued, or
// re-scanned. The fetch stage and cache protocol are
// identical to the materialising path.
//
// At the start of a twin tail (e.TwinTail = k) the same count c is turned
// into C(c, k): the k twins' assignments are the k-subsets of the one
// candidate set, so the tail's remaining extends never run.
//
// Grouped counting rides the same path: when the run carries a GroupAgg and
// the sink a GroupSpec, each chunk accumulates per-group partial counts into
// a pooled worker-local table that merges into the shared aggregate — the
// additive analogue of how every chunk claims from the shared match Budget.
func (r *machineRun) countExtend(e *dataflow.Extend, b *dataflow.Batch) (uint64, error) {
	r.fetch(e, b)
	defer r.m.Release()
	// The candidate predicate is built once per batch and shared by every
	// chunk and worker (it is read-only after construction).
	pred := r.newCandPred(e)
	if pred.impossible {
		return 0, nil
	}
	var keyer *groupKeyer
	if spec := r.ex.st.Terminal.Group; spec != nil && r.ex.eng.cfg.Groups != nil {
		// Row slots of the input tuple are OutLayout minus the extension
		// target; keys that read the target resolve per candidate.
		rowLayout := e.OutLayout[:len(e.OutLayout)-1]
		var err error
		if keyer, err = newGroupKeyer(*spec, rowLayout, e.TargetQV, r.m.Graph()); err != nil {
			return 0, err
		}
	}
	// Worker-local group tables (one per scratch) avoid contention on the
	// shared aggregate under work stealing.
	var total atomic.Uint64
	_, err := r.forChunks(b, keyer != nil, func(sc *extendScratch, c *dataflow.Batch) error {
		n, err := r.countChunk(e, c, &pred, keyer, sc)
		total.Add(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

func (r *machineRun) countChunk(e *dataflow.Extend, c *dataflow.Batch, pred *candPred, keyer *groupKeyer, sc *extendScratch) (uint64, error) {
	twins := uint64(e.TwinTail) // 0 outside a twin tail, whose keys never read a twin
	bud := r.ex.eng.cfg.Budget
	gt := sc.gt
	// A row-determined key (it reads only matched slots) keeps the count
	// fast path: the whole surviving candidate set lands in one group. A
	// target-dependent key (it reads the vertex this extension matches)
	// forces the per-candidate loop, where keys are collected so that under
	// a budget exactly the granted share is attributed.
	rowKeyed := keyer != nil && keyer.rowDetermined()
	candKeyed := keyer != nil && !keyer.rowDetermined()
	hubMin := pred.g.HubMinDegree()
	var total uint64
	for i := 0; i < c.Rows(); i++ {
		if bud != nil && bud.Exhausted() {
			return total, nil
		}
		row := c.Row(i)
		ok, err := r.gatherOperands(e, row, pred.g, hubMin, sc)
		if err != nil {
			return 0, err
		}
		if !ok {
			continue
		}
		var n uint64
		switch {
		case pred.trivial() && !candKeyed:
			// Count-only fast path — injectivity is the only predicate left,
			// the symmetry-breaking orders having narrowed the operands: the
			// candidate set is never materialised — the adaptive count kernel
			// reduces the all-hub case to a popcount, and the collision
			// subtraction probes each matched vertex through every narrowed
			// operand (a vertex is a candidate iff every operand contains it)
			// instead of searching a built list.
			n = uint64(graph.IntersectCountAdaptive(sc.sets, &sc.isect))
			if n > 0 {
				for _, u := range row {
					if containsAll(sc.sets, u) {
						n--
					}
				}
			}
			if twins > 0 {
				n = binom(n, twins)
			}
			if bud != nil {
				// Claim per input row: workers race for the shared budget, and
				// whatever is granted is exactly what gets counted.
				n = bud.Take(n)
			}
		case candKeyed:
			// Candidate-keyed grouping tests and keys each candidate without
			// materialising the set: a packed bitset result is iterated bit
			// by bit.
			cand := graph.IntersectAdaptive(sc.sets, &sc.isect)
			keys := gt.keys[:0]
			cand.Range(func(v graph.VertexID) bool {
				if acceptCandidate(pred, row, v) {
					keys = append(keys, keyer.candKey(row, v))
				}
				return true
			})
			gt.keys = keys
			n = uint64(len(keys))
			if bud != nil {
				n = bud.Take(n)
			}
			// Budget interplay: the budget caps total matches counted and the
			// groups see exactly the granted share — the first n keys.
			for _, k := range keys[:n] {
				gt.counts[k]++
			}
		default:
			// Filtered counting (labels, delta old-edge rejection): candidates
			// are only tested, never collected — the shared candPred runs per
			// set bit when the bitset path wins.
			cand := graph.IntersectAdaptive(sc.sets, &sc.isect)
			cand.Range(func(v graph.VertexID) bool {
				if acceptCandidate(pred, row, v) {
					n++
				}
				return true
			})
			if twins > 0 {
				n = binom(n, twins)
			}
			if bud != nil {
				n = bud.Take(n)
			}
		}
		if rowKeyed && n > 0 {
			gt.add(keyer.rowKey(row), n)
		}
		total += n
	}
	return total, nil
}

// containsAll reports whether u lies in every operand set — the adaptive
// membership form of "u is a candidate", used to subtract already-matched
// vertices from a count-only intersection.
func containsAll(sets []graph.NbrList, u graph.VertexID) bool {
	for _, s := range sets {
		if !s.Contains(u) {
			return false
		}
	}
	return true
}

// acceptCandidate applies the per-candidate check of a counting extension:
// the shared label/delta predicate and injectivity against the matched row.
// The symmetry-breaking filters were applied to the operands
// (candidateRange).
func acceptCandidate(pred *candPred, row []graph.VertexID, v graph.VertexID) bool {
	if !pred.ok(row, v) {
		return false
	}
	for _, u := range row {
		if u == v {
			return false
		}
	}
	return true
}

// countWedges counts a K₂,ₖ twin tail at its wedge step e = EXTEND(t ⇒ c2)
// (e.TwinWedge): the batch holds scanned rows (c1, t), each c1's rows in
// one run (the scan and the chunking never cut one). Per c1 a dense
// counter on the worker's scratch tallies the wedges c1–t–c2 that pass
// e's candidate checks — the orders with c1 and t narrow the operand, the
// label and old-edge predicate and injectivity run per wedge — so the
// counter at c2 is the size of the twins' candidate set for (c1, c2), and
// the row adds Σ_c2 C(wedges, k). A budget is claimed once per c1; a
// group key reads c1 or c2, never a twin. Only t's adjacency is pulled,
// exactly as EXTEND(t ⇒ c2) pulls it.
func (r *machineRun) countWedges(e *dataflow.Extend, b *dataflow.Batch) (uint64, error) {
	r.fetch(e, b)
	defer r.m.Release()
	pred := r.newCandPred(e)
	if pred.impossible {
		return 0, nil
	}
	var keyer *groupKeyer
	if spec := r.ex.st.Terminal.Group; spec != nil && r.ex.eng.cfg.Groups != nil {
		var err error
		if keyer, err = newGroupKeyer(*spec, wedgeKeyLayout(e), -1, r.m.Graph()); err != nil {
			return 0, err
		}
	}
	var total atomic.Uint64
	_, err := r.forChunks(b, keyer != nil, func(sc *extendScratch, c *dataflow.Batch) error {
		n, err := r.countWedgeChunk(e, c, &pred, keyer, sc)
		total.Add(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// wedgeKeyLayout is the row layout a wedge count keys its groups on:
// (c1, −, c2), the scanned twin's slot holding no query vertex.
func wedgeKeyLayout(e *dataflow.Extend) []int {
	layout := slices.Clone(e.OutLayout)
	layout[1] = -1
	return layout
}

func (r *machineRun) countWedgeChunk(e *dataflow.Extend, c *dataflow.Batch, pred *candPred, keyer *groupKeyer, sc *extendScratch) (uint64, error) {
	twins := uint64(e.TwinTail)
	bud := r.ex.eng.cfg.Budget
	g, trivial := pred.g, pred.trivial()
	hubMin := g.HubMinDegree()
	if n := g.NumVertices(); len(sc.wedges) < n {
		// Grown once per scratch and reset through the touched list, so a
		// pooled scratch counts every later run without allocating.
		sc.wedges = make([]uint32, n)
	}
	// perC2 keys each c2's term by c2; otherwise every term of a c1 lands
	// in c1's group.
	perC2 := keyer != nil && keyer.slot == 2
	var total uint64
	for i, rows := 0, c.Rows(); i < rows; {
		if bud != nil && bud.Exhausted() {
			return total, nil
		}
		c1 := c.Row(i)[0]
		touched := sc.touched[:0]
		for ; i < rows && c.Row(i)[0] == c1; i++ {
			row := c.Row(i)
			ok, err := r.gatherOperands(e, row, g, hubMin, sc)
			if err != nil {
				return total, err
			}
			if !ok {
				continue
			}
			for _, c2 := range sc.sets[0].List {
				if c2 == c1 || !trivial && !pred.ok(row, c2) {
					continue
				}
				if sc.wedges[c2] == 0 {
					touched = append(touched, c2)
				}
				sc.wedges[c2]++
			}
		}
		var n uint64
		for _, c2 := range touched {
			n += binom(uint64(sc.wedges[c2]), twins)
		}
		granted := n
		if bud != nil {
			granted = bud.Take(n)
		}
		if keyer != nil && granted > 0 {
			row := [3]graph.VertexID{c1, 0, 0}
			if !perC2 {
				sc.gt.add(keyer.rowKey(row[:]), granted)
			}
			// Under a budget the groups see exactly the granted share: the
			// first terms in touched order.
			for left, j := granted, 0; perC2 && left > 0; j++ {
				row[2] = touched[j]
				term := min(binom(uint64(sc.wedges[touched[j]]), twins), left)
				sc.gt.add(keyer.rowKey(row[:]), term)
				left -= term
			}
		}
		for _, c2 := range touched {
			sc.wedges[c2] = 0
		}
		sc.touched = touched
		total += granted
	}
	return total, nil
}

// binom returns the binomial coefficient C(n, k), exact whenever it fits in
// a uint64 and math.MaxUint64 otherwise. Each step multiplies in 128 bits
// and divides exactly: after step i the value is C(n-k+i, i).
func binom(n, k uint64) uint64 {
	if k > n {
		return 0
	}
	k = min(k, n-k)
	c := uint64(1)
	for i := uint64(1); i <= k; i++ {
		hi, lo := bits.Mul64(c, n-k+i)
		if hi >= i {
			return math.MaxUint64 // C(n-k+i, i) ≥ 2⁶⁴, and C(n, k) is larger still
		}
		c, _ = bits.Div64(hi, lo, i)
	}
	return c
}
