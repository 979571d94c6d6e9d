package engine

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/graph"
)

// countTail is the compressed form of processExtend (the generic
// compression optimisation [63]) at the start of a counting sink stage's
// independent tail: the extends of tail end the stage and match pairwise
// non-adjacent query vertices whose neighbours every input row has
// matched. Each target then draws from one candidate set S fixed by the
// row — its operands' intersection narrowed by its orders against the row,
// filtered by its label and old-edge predicate, minus the row's vertices —
// and the row adds the injective, order-respecting picks in closed form:
//
//   - one target (the final extension): |S|;
//   - k twins, one set totally ordered: C(|S|, k);
//   - two sets without an order between them: |S_a|·|S_b| − |S_a ∩ S_b|;
//   - two sets with x < y: the ordered pairs, one merge of the two lists.
//
// Both pair forms take the row's vertices out by membership tests.
//
// No output rows are built, queued, or re-scanned, and one fetch pulls
// every target's operands for the batch.
//
// Grouped counting rides the same path: when the run carries a GroupAgg and
// the sink a GroupSpec, each chunk accumulates per-group partial counts into
// a pooled worker-local table that merges into the shared aggregate — the
// additive analogue of how every chunk claims from the shared match Budget.
// A key may read the first target only when it is the tail's one target.
func (r *machineRun) countTail(tail []*dataflow.Extend, b *dataflow.Batch) (uint64, error) {
	r.fetch(b, tail...)
	defer r.m.Release()
	// The tail's sets are resolved once per run and shared by every chunk
	// and worker (they are read-only after construction).
	if r.tail == nil {
		r.tail = r.newTailCount(tail)
	}
	tc := r.tail
	if tc.sets[0].pred.impossible || tc.pair && tc.sets[1].pred.impossible {
		return 0, nil
	}
	var keyer *groupKeyer
	if spec := r.ex.st.Terminal.Group; spec != nil && r.ex.eng.cfg.Groups != nil {
		// Row slots of the input tuple are OutLayout minus the first
		// target; keys that read it resolve per candidate.
		e := tail[0]
		var err error
		if keyer, err = newGroupKeyer(*spec, e.OutLayout[:len(e.OutLayout)-1], e.TargetQV, r.m.Graph()); err != nil {
			return 0, err
		}
	}
	// Worker-local group tables (one per scratch) avoid contention on the
	// shared aggregate under work stealing.
	var total atomic.Uint64
	_, err := r.forChunks(b, keyer != nil, func(sc *extendScratch, c *dataflow.Batch) error {
		n, err := r.countChunk(tc, c, keyer, sc)
		total.Add(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// tailSet is one target's candidate set as the rows entering a tail see it:
// the extend with only its orders against those rows, and its predicate.
type tailSet struct {
	e    dataflow.Extend
	pred candPred
}

// tailCount is a tail resolved for one run: k targets drawing from
// sets[0] alone (one target, or twins), or — pair — two targets drawing
// from sets[0] and sets[1], the second ordered against the first by order.
// known holds, per pair set, the row slots whose membership the prefix
// already decides.
type tailCount struct {
	k     uint64
	pair  bool
	order pairOrder
	sets  [2]tailSet
	known [2]members
}

// members marks the slots of a tail's input row whose vertex is surely in
// a set (in) or surely not (out), so a pair count need not test them.
type members struct{ in, out uint32 }

// pairOrder is the order between the two targets of a pair.
type pairOrder int

const (
	unordered  pairOrder = iota
	firstLess            // x < y: the first target's vertex is the smaller
	secondLess           // y < x
)

func (r *machineRun) newTailCount(tail []*dataflow.Extend) *tailCount {
	tc := &tailCount{k: uint64(len(tail))}
	tc.sets[0].e = *tail[0]
	tc.sets[0].pred = r.newCandPred(&tc.sets[0].e)
	if len(tail) != 2 {
		return tc // one target, or twins (dataflow.Validate)
	}
	width := len(tail[0].OutLayout) - 1
	b := &tc.sets[1].e
	*b = *tail[1]
	b.NewFilters = nil
	for _, f := range tail[1].NewFilters {
		switch {
		case f.Slot < width:
			b.NewFilters = append(b.NewFilters, f)
		case f.NewLess:
			tc.order = secondLess
		default:
			tc.order = firstLess
		}
	}
	// Ordered twins are C(|S|, 2) off one count; anything else is a pair.
	if tc.pair = tc.order == unordered || !tail[0].SameCandidates(tail[1], width); tc.pair {
		tc.sets[1].pred = r.newCandPred(b)
		adj := prefixEdges(r.ex.st, slices.Index(r.ex.st.Extends, tail[0]))
		for i := range tc.sets {
			tc.known[i] = tc.sets[i].known(adj)
		}
	}
	return tc
}

// prefixEdges returns, for each slot of the rows entering st's k-th
// extend, the slots a data edge to it is known for: the scanned edge, and
// each operand an extend or verify before k intersected. A join's output
// slots carry none it did not extend or verify itself.
func prefixEdges(st *dataflow.Stage, k int) []uint32 {
	adj := make([]uint32, len(st.Extends[k].OutLayout)-1)
	link := func(a, b int) {
		adj[a] |= 1 << b
		adj[b] |= 1 << a
	}
	if st.JoinSrc == nil {
		link(0, 1)
	}
	for _, e := range st.Extends[:k] {
		to := e.VerifySlot
		if !e.IsVerify() {
			to = len(e.OutLayout) - 1
		}
		for _, s := range e.ExtSlots {
			link(to, s)
		}
	}
	return adj
}

// known returns the row slots whose membership in s the prefix decides,
// given its known edges adj: an operand's own vertex is never its own
// neighbour, and when s is its operands' intersection alone (no predicate,
// no order against the row) a vertex adjacent to every operand is in it.
func (s *tailSet) known(adj []uint32) members {
	var m members
	var ops uint32
	for _, slot := range s.e.ExtSlots {
		ops |= 1 << slot
	}
	m.out = ops
	if !s.pred.trivial() || len(s.e.NewFilters) > 0 {
		return m
	}
	for t, nb := range adj {
		if nb&ops == ops {
			m.in |= 1 << t
		}
	}
	return m
}

func (r *machineRun) countChunk(tc *tailCount, c *dataflow.Batch, keyer *groupKeyer, sc *extendScratch) (uint64, error) {
	s := &tc.sets[0]
	bud := r.ex.eng.cfg.Budget
	gt := sc.gt
	// A row-determined key (it reads only matched slots) keeps the count
	// fast path: the row's whole count lands in one group. A key that reads
	// the one target forces the per-candidate loop, where keys are
	// collected so that under a budget exactly the granted share is
	// attributed.
	rowKeyed := keyer != nil && keyer.rowDetermined()
	candKeyed := keyer != nil && !keyer.rowDetermined()
	hubMin := s.pred.g.HubMinDegree()
	var total uint64
	for i := 0; i < c.Rows(); i++ {
		if bud != nil && bud.Exhausted() {
			return total, nil
		}
		row := c.Row(i)
		if candKeyed {
			// Candidate-keyed grouping tests and keys each candidate without
			// materialising the set: a packed bitset result is iterated bit
			// by bit.
			ok, err := r.gatherOperands(&s.e, row, s.pred.g, hubMin, sc)
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
			keys := gt.keys[:0]
			graph.IntersectAdaptive(sc.sets, &sc.isect).Range(func(v graph.VertexID) bool {
				if acceptCandidate(&s.pred, row, v) {
					keys = append(keys, keyer.candKey(row, v))
				}
				return true
			})
			gt.keys = keys
			n := uint64(len(keys))
			if bud != nil {
				n = bud.Take(n)
			}
			// Budget interplay: the budget caps total matches counted and the
			// groups see exactly the granted share — the first n keys.
			for _, k := range keys[:n] {
				gt.counts[k]++
			}
			total += n
			continue
		}
		n, err := r.countRow(tc, row, hubMin, sc)
		if err != nil {
			return 0, err
		}
		if bud != nil {
			// Claim per input row: workers race for the shared budget, and
			// whatever is granted is exactly what gets counted.
			n = bud.Take(n)
		}
		if rowKeyed && n > 0 {
			gt.add(keyer.rowKey(row), n)
		}
		total += n
	}
	return total, nil
}

// countRow returns one row's count in closed form: |S| for one target,
// C(|S|, k) for twins, countPair's for two sets.
func (r *machineRun) countRow(tc *tailCount, row []graph.VertexID, hubMin int, sc *extendScratch) (uint64, error) {
	if tc.pair {
		return r.countPair(tc, row, hubMin, sc)
	}
	s := &tc.sets[0]
	ok, err := r.gatherOperands(&s.e, row, s.pred.g, hubMin, sc)
	if err != nil || !ok {
		return 0, err
	}
	var n uint64
	if s.pred.trivial() {
		// Injectivity is the only predicate left, the symmetry-breaking
		// orders having narrowed the operands: the candidate set is never
		// materialised — the adaptive count kernel reduces the all-hub case
		// to a popcount, and the collision subtraction probes each matched
		// vertex through every narrowed operand (a vertex is a candidate
		// iff every operand contains it) instead of searching a built list.
		n = uint64(graph.IntersectCountAdaptive(sc.sets, &sc.isect))
		for _, u := range row {
			if n > 0 && containsAll(sc.sets, u) {
				n--
			}
		}
	} else {
		// Filtered counting (labels, delta old-edge rejection): candidates
		// are only tested, never collected — the shared candPred runs per
		// set bit when the bitset path wins.
		graph.IntersectAdaptive(sc.sets, &sc.isect).Range(func(v graph.VertexID) bool {
			if acceptCandidate(&s.pred, row, v) {
				n++
			}
			return true
		})
	}
	if tc.k > 1 {
		n = binom(n, tc.k)
	}
	return n, nil
}

// countPair counts a two-set tail on one row. Each set is its operands'
// intersection, filtered by its predicate when that is not trivial; a
// single unfiltered operand is read where it lies, hub bitset and all,
// anything else is copied to the worker's scratch. The row's own vertices
// stay in the sets: the pair counts discount them by membership tests.
// Rows arrive in runs that share their leading slots, so a set whose
// operands and range are those of the row it was last resolved for in the
// batch is not resolved again. On EU q7 at Machines 2 this reuses v1's set
// (operand v2) on most rows.
func (r *machineRun) countPair(tc *tailCount, row []graph.VertexID, hubMin int, sc *extendScratch) (uint64, error) {
	for i := range tc.sets {
		s, p, set := &tc.sets[i], &sc.pair[i], &sc.pairSets[i]
		lo, hi := candidateRange(s.e.NewFilters, row)
		if p.from == nil || p.lo != lo || p.hi != hi || !sameOperands(s.e.ExtSlots, row, p.from) {
			ok, err := r.gatherOperands(&s.e, row, s.pred.g, hubMin, sc)
			if err != nil {
				return 0, err
			}
			*set = graph.NbrList{}
			switch {
			case !ok:
			case !s.pred.trivial():
				p.buf = p.buf[:0]
				graph.IntersectAdaptive(sc.sets, &sc.isect).Range(func(v graph.VertexID) bool {
					if s.pred.ok(row, v) {
						p.buf = append(p.buf, v)
					}
					return true
				})
				set.List = p.buf
			case len(sc.sets) == 1:
				*set = sc.sets[0]
			default:
				p.buf = graph.IntersectAdaptive(sc.sets, &sc.isect).AppendTo(p.buf[:0])
				set.List = p.buf
			}
			p.from, p.lo, p.hi = row, lo, hi
		}
		if len(set.List) == 0 {
			return 0, nil
		}
	}
	if tc.order == unordered {
		return unorderedPairs(&sc.pairSets, &tc.known, row, &sc.isect), nil
	}
	return orderedPairs(sc.pairSets[0].List, sc.pairSets[1].List, row, tc.order), nil
}

// pairSet records what one set of a pair tail was last resolved from in
// the current batch: the operands row from holds, in the range [lo, hi).
// buf holds the set when it is not one operand as it lies.
type pairSet struct {
	buf, from []graph.VertexID
	lo, hi    graph.VertexID
}

// sameOperands reports whether rows a and b hold the same vertices in the
// slots an extend reads.
func sameOperands(slots []int, a, b []graph.VertexID) bool {
	for _, s := range slots {
		if a[s] != b[s] {
			return false
		}
	}
	return true
}

// unorderedPairs returns the picks (x, y), x ∈ a and y ∈ b, neither a
// vertex of row, with x ≠ y: |a′|·|b′| − |a′ ∩ b′| for a′, b′ the sets less
// the row. |a ∩ b| comes from the adaptive count kernel (a popcount when
// both are hubs), and each row vertex is taken out of |a|, |b| and
// |a ∩ b| by one membership test per set, unless known decides it — the
// row is never copied.
func unorderedPairs(sets *[2]graph.NbrList, known *[2]members, row []graph.VertexID, isect *graph.IntersectScratch) uint64 {
	a, b := &sets[0], &sets[1]
	ka, kb := &known[0], &known[1]
	na, nb := uint64(len(a.List)), uint64(len(b.List))
	common := uint64(graph.IntersectCountAdaptive(sets[:], isect))
	for i, u := range row {
		bit := uint32(1) << i
		inA := ka.in&bit != 0 || ka.out&bit == 0 && a.Contains(u)
		inB := kb.in&bit != 0 || kb.out&bit == 0 && b.Contains(u)
		if inA {
			na--
		}
		if inB {
			nb--
		}
		if inA && inB {
			common--
		}
	}
	return na*nb - common
}

// orderedPairs returns the picks (x, y), x ∈ a and y ∈ b, neither a vertex
// of row, with x < y (y < x for secondLess), for ascending a and b: one
// merge counts Σ_{y ∈ b} #{x ∈ a : x < y} over the whole lists, then
// inclusion–exclusion over the row's vertices, found by binary search,
// takes out the pairs that use one: (x, u) for u ∈ row ∩ b, (u, y) for
// u ∈ row ∩ a, and adds back the pairs (u, w) of two row vertices, which
// both terms took out.
func orderedPairs(a, b, row []graph.VertexID, order pairOrder) uint64 {
	if order == secondLess {
		a, b = b, a
	}
	var less uint64
	for i, j := 0, 0; j < len(b); j++ {
		for i < len(a) && a[i] < b[j] {
			i++
		}
		less += uint64(i)
	}
	var inB uint32 // bit i: row[i] ∈ b (a row has at most query.MaxVertices slots)
	for i, u := range row {
		if _, ok := slices.BinarySearch(b, u); ok {
			inB |= 1 << i
		}
	}
	for i, u := range row {
		below, inA := slices.BinarySearch(a, u)
		if inB&(1<<i) != 0 {
			less -= uint64(below) // (x, u) with x < u
		}
		if !inA {
			continue
		}
		above, found := slices.BinarySearch(b, u)
		if found {
			above++
		}
		less -= uint64(len(b) - above) // (u, y) with u < y
		for j, w := range row {
			if inB&(1<<j) != 0 && u < w {
				less++ // (u, w), taken out twice
			}
		}
	}
	return less
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

// countSeparator counts a stage at its separator (dataflow.Separator): the
// batch holds the scanned rows, and each image of the separator adds its
// sides' vertex-disjoint, order-respecting picks from its completions in
// closed form. No extend runs, and no row is built or queued. A budget is
// claimed once per image; a group key reads the separator, never a side.
//
//   - K₂,ₖ (wedgeImages): the separator (c1, c2) is found through the
//     scanned rows (c1, t), and P = N(c1) ∩ N(c2) adds C(|P|, k). Only
//     t's adjacency is pulled, exactly as EXTEND(t ⇒ c2) pulls it.
//   - the ladder (rungImages): each scanned rung (a, b) is an image, and
//     adds half its vertex-disjoint ordered pairs of P (rungPairs). Both
//     ends' lists and every x's list, x ∈ N(a), are pulled (fetchEnds).
//   - the 5-path (pathImages): each scanned middle edge (a, b) is an
//     image, and adds its pairs of 2-paths a–x–x′ and b–y–y′ that share no
//     vertex (extendScratch.countPath). Both ends' lists and their
//     neighbours' lists are pulled (fetchEnds).
func (r *machineRun) countSeparator(b *dataflow.Batch) (uint64, error) {
	st := r.ex.st
	count := r.rungImages
	if st.Separator == dataflow.PathSeparator {
		count = r.pathImages
	}
	var keyer *groupKeyer
	if st.Separator != dataflow.WedgeSeparator {
		r.fetchEnds(b)
		defer r.m.Release()
	} else {
		e := st.Extends[0]
		r.fetch(b, e)
		defer r.m.Release()
		pred := r.newCandPred(e)
		if pred.impossible {
			return 0, nil
		}
		if spec := st.Terminal.Group; spec != nil && r.ex.eng.cfg.Groups != nil {
			var err error
			if keyer, err = newGroupKeyer(*spec, wedgeKeyLayout(st), -1, r.m.Graph()); err != nil {
				return 0, err
			}
		}
		count = func(c *dataflow.Batch, sc *extendScratch) (uint64, error) {
			return r.wedgeImages(e, c, &pred, keyer, sc)
		}
	}
	var total atomic.Uint64
	_, err := r.forChunks(b, keyer != nil, func(sc *extendScratch, c *dataflow.Batch) error {
		n, err := count(c, sc)
		total.Add(n)
		return err
	})
	if err != nil {
		return 0, err
	}
	return total.Load(), nil
}

// wedgeKeyLayout is the row layout a wedge separator keys its groups on:
// (c1, −, c2), the scanned twin's slot holding no query vertex.
func wedgeKeyLayout(st *dataflow.Stage) []int {
	layout := slices.Clone(st.Extends[0].OutLayout)
	layout[1] = -1
	return layout
}

// wedgeImages counts K₂,ₖ on one chunk of scanned rows (c1, t), each c1's
// rows in one run (the scan and the chunking never cut one). Per c1 a
// dense counter on the worker's scratch tallies the wedges c1–t–c2 that
// pass the wedge step e's candidate checks — the orders with c1 and t
// narrow the operand, the label and old-edge predicate and injectivity run
// per wedge — so the counter at c2 is |P| for the image (c1, c2), which
// adds C(|P|, k), k = e's stage's extends.
func (r *machineRun) wedgeImages(e *dataflow.Extend, c *dataflow.Batch, pred *candPred, keyer *groupKeyer, sc *extendScratch) (uint64, error) {
	twins := uint64(len(r.ex.st.Extends))
	bud := r.ex.eng.cfg.Budget
	g, trivial := pred.g, pred.trivial()
	hubMin := g.HubMinDegree()
	sc.growWedges(g.NumVertices())
	// perC2 keys each image's term by c2; otherwise every term of a c1
	// lands in c1's group.
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
				// Leave the counter clean for the scratch's next count.
				sc.touched = touched
				sc.clearWedges()
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
		row := [3]graph.VertexID{c1, 0, 0}
		for _, c2 := range touched {
			term := binom(uint64(sc.wedges[c2]), twins)
			sc.wedges[c2] = 0
			if bud != nil {
				term = bud.Take(term)
			}
			if perC2 && term > 0 {
				row[2] = c2
				sc.gt.add(keyer.rowKey(row[:]), term)
			}
			n += term
		}
		if keyer != nil && !perC2 && n > 0 {
			sc.gt.add(keyer.rowKey(row[:]), n)
		}
		sc.touched = touched
		total += n
	}
	return total, nil
}

// rungImages counts the ladder on one chunk of scanned rungs: each row
// adds half its vertex-disjoint ordered pairs of side completions, which
// are even in number (swapping the sides pairs them up), so that under the
// order between the sides' x each match counts once. The count is
// symmetric in the rung's ends, and it walks the lists of one end's
// neighbours (rungEnds picks the end); rows that share that end resolve
// its lists once.
func (r *machineRun) rungImages(c *dataflow.Batch, sc *extendScratch) (uint64, error) {
	bud := r.ex.eng.cfg.Budget
	g := r.m.Graph()
	s := &sc.rung
	var na []graph.VertexID
	var prev graph.VertexID
	var total uint64
	for i := 0; i < c.Rows(); i++ {
		if bud != nil && bud.Exhausted() {
			return total, nil
		}
		a, b := rungEnds(g, c.Row(i))
		if i == 0 || a != prev {
			var err error
			if na, err = r.sideLists(a, &sc.lists); err != nil {
				return total, err
			}
			prev = a
		}
		nb, ok := r.m.Neighbors(b)
		if !ok {
			return total, errUnfetched(b)
		}
		n := rungPairs(a, b, na, nb, sc.lists, s)
		if n /= 2; bud != nil {
			n = bud.Take(n)
		}
		total += n
	}
	return total, nil
}

// pathImages counts the 5-path on one chunk of scanned middle edges
// (a, b): each row adds its images (extendScratch.countPath). The tally
// over a's 2-hop is built once for the rows that share a, which arrive
// together, and each row walks b's 2-hop; the scratch is clean again when
// the chunk ends.
func (r *machineRun) pathImages(c *dataflow.Batch, sc *extendScratch) (uint64, error) {
	bud := r.ex.eng.cfg.Budget
	g := r.m.Graph()
	sc.growWedges(g.NumVertices())
	defer sc.clearWedges()
	var total uint64
	for i := 0; i < c.Rows(); i++ {
		if bud != nil && bud.Exhausted() {
			return total, nil
		}
		row := c.Row(i)
		if i == 0 || row[0] != sc.path.a {
			sc.clearWedges()
			na, err := r.sideLists(row[0], &sc.lists)
			if err != nil {
				return total, err
			}
			sc.tallyPath(row[0], na, sc.lists)
		}
		nb, err := r.sideLists(row[1], &sc.lists)
		if err != nil {
			return total, err
		}
		n := sc.countPath(g, row[1], nb, sc.lists)
		if bud != nil {
			n = bud.Take(n)
		}
		total += n
	}
	return total, nil
}

// pathScratch holds the end a a path count has tallied and
// da = Σ_{x ∈ N(a)} deg x. The tally itself is the worker's dense counter
// (extendScratch.wedges): the low bits of wedges[z] count z's neighbours
// in N(a), pathInA marks z ∈ N(a) and pathInB z ∈ N(b) for the edge
// (a, b) being counted.
type pathScratch struct {
	a  graph.VertexID
	da uint64
}

const (
	pathInA       = 1 << 31
	pathInB       = 1 << 30
	pathTallyMask = pathInB - 1
)

// growWedges sizes the dense counter to a graph of n vertices. It grows
// once per scratch and is reset through the touched list, so a pooled
// scratch counts every later run without allocating.
func (sc *extendScratch) growWedges(n int) {
	if len(sc.wedges) < n {
		sc.wedges = make([]uint32, n)
	}
}

// clearWedges zeroes the counter entries the touched list names.
func (sc *extendScratch) clearWedges() {
	for _, z := range sc.touched {
		sc.wedges[z] = 0
	}
	sc.touched = sc.touched[:0]
}

// tallyPath sets the counter to the tally of the end a, for na = N(a) and
// lists[i] = N(na[i]): wedges[z] counts the x ∈ N(a) with z ∈ N(x), and
// N(a) is marked. The counter must be clear.
func (sc *extendScratch) tallyPath(a graph.VertexID, na []graph.VertexID, lists [][]graph.VertexID) {
	w := sc.wedges
	sc.path = pathScratch{a: a}
	for _, nx := range lists {
		sc.path.da += uint64(len(nx))
		for _, z := range nx {
			if w[z] == 0 {
				sc.touched = append(sc.touched, z)
			}
			w[z]++
		}
	}
	for _, x := range na {
		if w[x] == 0 {
			sc.touched = append(sc.touched, x)
		}
		w[x] |= pathInA
	}
}

// countPath returns the images of the 5-path x′–x–a–b–y–y′ at the middle
// edge (a, b), a the end tallied, nb = N(b) and lists[i] = N(nb[i]): the
// pairs of 2-paths a–x–x′ and b–y–y′, x ≠ b, y ≠ a, x′ and y′ not in
// {a, b}, that share no vertex. With c(v) = |N(v)∖{a, b}|,
// A = Σ_{x ∈ N(a)∖b} c(x) and B likewise for b, they number A·B less the
// pairs where x = y, x = y′, x′ = y or x′ = y′, plus the two collisions
// that can happen at once (x = y with x′ = y′, x = y′ with x′ = y):
//
//	A·B − Σ_{v ∈ N(a)∩N(b)} (deg v − 2)² − Σ_P c(x) − Σ_P c(y)
//	    − Σ_{z ∉ {a,b}} w_a(z)·w_b(z) + Σ_{v ∈ N(a)∩N(b)} (deg v − 2) + |P|,
//
// P = {(x, y) : x ∈ N(a)∖b, y ∈ N(b)∖a, x ~ y} and w_a(z) =
// |N(z) ∩ N(a)∖{b}|, w_b likewise. One walk over b's 2-hop, reading the
// tally and the marks of N(a) and N(b), yields every term: a step y–z
// adds w_a(z) to Σ w_a·w_b, and is a pair of P when z ∈ N(a). The sum is
// taken positive terms first, so it never wraps.
func (sc *extendScratch) countPath(g *graph.Graph, b graph.VertexID, nb []graph.VertexID, lists [][]graph.VertexID) uint64 {
	a, w := sc.path.a, sc.wedges
	for _, y := range nb {
		w[y] |= pathInB
	}
	// common = |N(a) ∩ N(b)|, and sq, lin the common vertices' c² and c;
	// db = Σ_{y ∈ N(b)∖a} deg y; p = |P|, cx and cy the sums of c over
	// P's x and y; ww = Σ w_a·w_b.
	var common, sq, lin, db, p, cx, cy, ww uint64
	for i, y := range nb {
		if y == a {
			continue
		}
		dy := uint64(len(lists[i]))
		db += dy
		c := dy - 1
		if w[y]&pathInA != 0 {
			c--
			common++
			sq += c * c
			lin += c
		}
		var py uint64
		for _, z := range lists[i] {
			if z == a || z == b {
				continue
			}
			v := w[z]
			inB := uint64(v/pathInB) & 1
			ww += uint64(v&pathTallyMask) - inB
			if v&pathInA != 0 {
				py++
				cx += uint64(g.Degree(z)) - 1 - inB
			}
		}
		p += py
		cy += c * py
	}
	for _, y := range nb {
		w[y] &^= pathInB
	}
	A := sc.path.da - uint64(len(nb)) - uint64(g.Degree(a)-1) - common
	B := db - uint64(len(nb)-1) - common
	return A*B + lin + p - sq - cx - cy - ww
}

// rungEnds orders a scanned rung's ends (a, b), a the end whose
// neighbours' lists a rung count walks: the scanned row[0], whose rows
// arrive together and share those lists, unless its degree is more than
// twice the other end's. On LJ, where hubs have low IDs and so scan first,
// walking the other end's lists takes q6 at Machines 1 from 3.9 s to
// 2.5 s; on EU, of near-uniform degree, the shared lists win. Degrees,
// like labels and hub bitsets, are index metadata every machine holds.
func rungEnds(g *graph.Graph, row []graph.VertexID) (a, b graph.VertexID) {
	if g.Degree(row[0]) > 2*g.Degree(row[1]) {
		return row[1], row[0]
	}
	return row[0], row[1]
}

// sideLists resolves v's list and, into lists, each of its members'
// lists: a rung end's candidates for x and their neighbourhoods, or a
// path end's 2-hop.
func (r *machineRun) sideLists(v graph.VertexID, lists *[][]graph.VertexID) ([]graph.VertexID, error) {
	nv, ok := r.m.Neighbors(v)
	if !ok {
		return nil, errUnfetched(v)
	}
	*lists = (*lists)[:0]
	for _, x := range nv {
		nx, ok := r.m.Neighbors(x)
		if !ok {
			return nil, errUnfetched(x)
		}
		*lists = append(*lists, nx)
	}
	return nv, nil
}

// errUnfetched reports a list a separator count needs that its fetch stage
// did not pull: the two-stage protocol makes it a bug.
func errUnfetched(v graph.VertexID) error {
	return fmt.Errorf("engine: vertex %d missing from cache during a separator count (two-stage protocol violated)", v)
}

// rungScratch holds one rung's tallies, indexed by position: c[i] counts
// the completions (na[i], y), d[j] those (x, nb[j]); inB[i] is one plus
// the position in nb of a common neighbour na[i] (0 when it is not one),
// inA[j] marks nb[j] common; pos holds one intersection's positions in nb.
type rungScratch struct {
	c, d []uint32
	inB  []int32
	inA  []bool
	pos  []int32
}

// rungPairs returns the vertex-disjoint ordered pairs of the side
// completions P = {(x, y) : x ∈ N(a)∖{b}, y ∈ N(b)∖{a}, x ~ y} of the rung
// (a, b), for na = N(a) and nb = N(b) ascending and lists[i] = N(na[i]).
// Two completions collide in two ways only — the same pair, or one the
// other reversed — so by inclusion–exclusion the pairs number
//
//	|P|² + |P| + R − Σc² − Σd² − 2·Σ c·d,
//
// c_z and d_z the completions with z as x and as y, R those whose reverse
// is in P. The sum is taken positive terms first, so it never wraps. One
// intersection N(x) ∩ N(b) per x yields P and, through the positions in
// nb, the tallies; c·d and R live on the common neighbours N(a) ∩ N(b),
// found by one merge. The scratch is O(|na| + |nb|).
func rungPairs(a, b graph.VertexID, na, nb []graph.VertexID, lists [][]graph.VertexID, s *rungScratch) uint64 {
	s.c, s.inB = resize(s.c, len(na)), resize(s.inB, len(na))
	s.d, s.inA = resize(s.d, len(nb)), resize(s.inA, len(nb))
	for i, j := 0, 0; i < len(na) && j < len(nb); {
		switch {
		case na[i] < nb[j]:
			i++
		case na[i] > nb[j]:
			j++
		default:
			s.inB[i], s.inA[j] = int32(j+1), true
			i++
			j++
		}
	}
	var p, rev uint64
	for i, x := range na {
		if x == b {
			continue
		}
		xInB := s.inB[i] > 0
		s.pos = positionsIn(lists[i], nb, s.pos[:0])
		for _, j := range s.pos {
			if nb[j] == a {
				continue
			}
			s.c[i]++
			s.d[j]++
			p++
			if xInB && s.inA[j] {
				rev++ // (y, x) ∈ P: y ∈ N(a) and x ∈ N(b)
			}
		}
	}
	var c2, d2, cd uint64
	for i, ci := range s.c {
		c2 += uint64(ci) * uint64(ci)
		if j := s.inB[i]; j > 0 {
			cd += uint64(ci) * uint64(s.d[j-1])
		}
	}
	for _, dj := range s.d {
		d2 += uint64(dj) * uint64(dj)
	}
	return p*p + p + rev - c2 - d2 - 2*cd
}

// resize returns s with length n and every entry zero, reusing its array.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// positionsIn appends to out the positions in big, ascending, of the
// vertices small and big share: one merge, or a binary search per vertex
// of small when big is much the longer list.
func positionsIn(small, big []graph.VertexID, out []int32) []int32 {
	if len(small)*16 < len(big) {
		lo := 0
		for _, v := range small {
			k, found := slices.BinarySearch(big[lo:], v)
			if lo += k; found {
				out = append(out, int32(lo))
				lo++
			}
		}
		return out
	}
	for i, j := 0, 0; i < len(small) && j < len(big); {
		switch {
		case small[i] < big[j]:
			i++
		case small[i] > big[j]:
			j++
		default:
			out = append(out, int32(j))
			i++
			j++
		}
	}
	return out
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
