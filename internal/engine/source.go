package engine

import (
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/graph"
)

// sourceIter produces the batches that drive a stage: either a SCAN over
// the vertices the machine owns, or the streaming output of a PUSH-JOIN.
type sourceIter interface {
	// nextBatch returns up to maxRows rows; ok=false when exhausted.
	nextBatch(maxRows int) (b *dataflow.Batch, ok bool, err error)
}

// scanIter implements SCAN(edge): it emits one tuple (u, w) per ordered
// edge whose u the machine owns — so the scan output is partitioned
// exactly like the graph, as Section 4.2 describes. It walks the vertex
// IDs in ascending order and skips those another machine owns; no
// per-machine vertex list exists. A label constraint on the scanned vertex
// seeds the walk from the graph's per-label vertex index instead of the
// full ID range; an edge-label constraint seeds from the
// (srcLabel, edgeLabel) triple index — only vertices with a qualifying
// incident edge are walked — and filters the walked edges; a constraint on
// the neighbour side filters emitted tuples. Labels are replicated (or
// ride along the local adjacency), so none of the checks communicate.
type scanIter struct {
	m    *cluster.MachineExec
	g    *graph.Graph
	scan *dataflow.EdgeScan
	// The walk covers seed[vi:end] when a label index seeds it, the vertex
	// IDs vi..end-1 otherwise; end = 0 when no vertex can qualify.
	seed       []graph.VertexID
	vi, end    int
	u          graph.VertexID   // the vertex whose edges are being emitted
	ni         int              // next position in current
	current    []graph.VertexID // neighbours of u; nil between vertices
	curELabels []graph.LabelID  // edge labels parallel to current (edge-constrained scans)
	labels     []graph.LabelID  // nil when the neighbour side is unconstrained
	edgeFilter bool             // check curELabels against scan.EdgeLabel
	// byVertex cuts batches only between vertices — a wedge count needs all
	// of a vertex's rows in one batch — so a batch may exceed maxRows by
	// one vertex's edges.
	byVertex bool
}

func newScanIter(m *cluster.MachineExec, scan *dataflow.EdgeScan) *scanIter {
	g := m.Graph()
	s := &scanIter{m: m, g: g, scan: scan, end: g.NumVertices()}
	seedFrom := func(indexed []graph.VertexID) { s.seed, s.end = indexed, len(indexed) }
	switch {
	case scan.EdgeLabel >= 0 && g.EdgeLabeled():
		// Triple-index seeding: only vertices with at least one incident
		// edge of the label (and the scanned vertex label, when
		// constrained) are walked; the walked edges are then filtered to
		// exactly the labelled ones.
		if scan.LabelA > 0 && !g.Labeled() {
			s.end = 0 // unlabelled graph holds only the implicit label 0
		} else {
			srcLabel := scan.LabelA
			if !g.Labeled() {
				srcLabel = 0 // the index keys every vertex under label 0
			}
			seedFrom(g.VerticesWithLabeledEdge(srcLabel, graph.LabelID(scan.EdgeLabel)))
		}
		s.edgeFilter = true
	case scan.EdgeLabel > 0:
		s.end = 0 // edge-unlabelled graph holds only the implicit label 0
	case scan.LabelA >= 0 && g.Labeled():
		// Per-label index seeding: walk only the vertices carrying the
		// label. For a selective label this is a small fraction of the graph.
		seedFrom(g.VerticesWithLabel(graph.LabelID(scan.LabelA)))
	case scan.LabelA > 0:
		s.end = 0 // unlabelled graph holds only the implicit label 0
	}
	if scan.LabelB >= 0 && g.Labeled() {
		s.labels = g.Labels()
	} else if scan.LabelB > 0 {
		s.end = 0
	}
	return s
}

// nextVertex advances the walk to the next vertex the machine owns.
func (s *scanIter) nextVertex() bool {
	for s.vi < s.end {
		v := graph.VertexID(s.vi)
		if s.seed != nil {
			v = s.seed[s.vi]
		}
		s.vi++
		if s.m.Owns(v) {
			s.u = v
			return true
		}
	}
	return false
}

func (s *scanIter) nextBatch(maxRows int) (*dataflow.Batch, bool, error) {
	b := dataflow.GetBatch(2, maxRows)
	var row [2]graph.VertexID
	for b.Rows() < maxRows {
		if s.current == nil {
			if !s.nextVertex() {
				break
			}
			s.current = s.g.Neighbors(s.u)
			if s.edgeFilter {
				s.curELabels = s.g.NeighborEdgeLabels(s.u)
			}
			s.ni = 0
		}
		for s.ni < len(s.current) && (s.byVertex || b.Rows() < maxRows) {
			w := s.current[s.ni]
			if s.edgeFilter && int(s.curELabels[s.ni]) != s.scan.EdgeLabel {
				s.ni++
				continue
			}
			s.ni++
			if s.labels != nil && int(s.labels[w]) != s.scan.LabelB {
				continue
			}
			row[0], row[1] = s.u, w
			if passOrderFilters(row[:], s.scan.Filters) {
				b.Append(row[:])
			}
		}
		if s.ni >= len(s.current) {
			s.current = nil
		}
	}
	if b.Rows() == 0 {
		b.Recycle()
		return nil, false, nil
	}
	return b, true, nil
}

// deltaScanIter implements DELTA-SCAN: it emits one tuple per orientation
// of each pinned delta edge, partitioned like a normal scan (the machine
// owning the first endpoint emits the row). The pinned set is tiny relative
// to the graph, so every machine walks the whole deterministic edge list
// and keeps its own rows; edges absent from this snapshot (a caller pinning
// a foreign set) are skipped. Label constraints check both endpoints
// against the replicated label metadata, and an edge-label constraint
// checks the pinned edge's own label — no communication either way.
type deltaScanIter struct {
	m    *cluster.MachineExec
	scan *dataflow.DeltaScan
	rows [][2]graph.VertexID // precomputed local rows
	i    int
}

func newDeltaScanIter(m *cluster.MachineExec, scan *dataflow.DeltaScan, delta *graph.EdgeSet) *deltaScanIter {
	s := &deltaScanIter{m: m, scan: scan}
	g := m.Graph()
	labelOK := func(v graph.VertexID, want int) bool {
		if want < 0 {
			return true
		}
		return int(g.Label(v)) == want
	}
	edgeLabelOK := func(u, v graph.VertexID) bool {
		if scan.EdgeLabel < 0 {
			return true
		}
		if !g.EdgeLabeled() {
			return scan.EdgeLabel == 0 // every edge implicitly carries label 0
		}
		return int(g.EdgeLabel(u, v)) == scan.EdgeLabel
	}
	for _, e := range delta.Edges() {
		if int(e[0]) >= g.NumVertices() || int(e[1]) >= g.NumVertices() || !g.HasEdge(e[0], e[1]) {
			continue
		}
		if !edgeLabelOK(e[0], e[1]) {
			continue
		}
		for _, row := range [2][2]graph.VertexID{{e[0], e[1]}, {e[1], e[0]}} {
			if !m.Owns(row[0]) {
				continue
			}
			if !labelOK(row[0], scan.LabelA) || !labelOK(row[1], scan.LabelB) {
				continue
			}
			if passOrderFilters(row[:], scan.Filters) {
				s.rows = append(s.rows, row)
			}
		}
	}
	return s
}

func (s *deltaScanIter) nextBatch(maxRows int) (*dataflow.Batch, bool, error) {
	if s.i >= len(s.rows) {
		return nil, false, nil
	}
	b := dataflow.GetBatch(2, maxRows)
	for s.i < len(s.rows) && b.Rows() < maxRows {
		row := s.rows[s.i]
		s.i++
		b.Append(row[:])
	}
	return b, true, nil
}

func passOrderFilters(row []graph.VertexID, fs []dataflow.OrderFilter) bool {
	for _, f := range fs {
		if row[f.SlotA] >= row[f.SlotB] {
			return false
		}
	}
	return true
}

// joinIter is the locally-computed PUSH-JOIN: a sort-merge join over the
// two buffered (possibly spilled) relations, read back in key order
// (Section 4.3). Rows of both sides are read in place. For every left row
// whose key has a right group it either streams the combined rows
// (nextBatch) or only counts them (scan without a batch: the join's form
// of the compression optimisation when a counting SINK follows directly);
// the cross predicates are evaluated on the two input rows, not on a built
// output row.
type joinIter struct {
	j           *dataflow.Join
	left, right RowIter

	leftRow, rightRow []graph.VertexID // in place: valid until the side's next Next
	leftOK, rightOK   bool
	started           bool

	groupKey   []graph.VertexID
	rightGroup []graph.VertexID // row-major copy of the current key group
	rightWidth int
	inGroup    bool // leftRow's key is groupKey
	gi         int  // offset in rightGroup of the next row to test against leftRow

	// CrossFilters and CrossDistinct resolved to (left slot, right slot)
	// operand pairs: the first nLt must have left < right, the next nGt
	// left > right, the rest left != right — the order filters first, since
	// a symmetry-breaking order rejects about half of the pairs. lv[i] is
	// the left operand of preds[i] in the current left row.
	preds    [][2]int
	nLt, nGt int
	lv       []graph.VertexID

	out []graph.VertexID // scratch output row; the left tuple is copied once per left row
}

func newJoinIter(j *dataflow.Join, left, right RowIter) *joinIter {
	it := &joinIter{j: j, left: left, right: right, out: make([]graph.VertexID, len(j.OutLayout))}
	leftWidth := len(j.OutLayout) - len(j.RightCopy)
	// operands maps a pair of output slots to (left slot, right slot);
	// flipped says the pair's first slot was the right one.
	operands := func(a, b int) (pair [2]int, flipped bool) {
		if flipped = a >= leftWidth; flipped {
			a, b = b, a
		}
		if a >= leftWidth || b < leftWidth {
			// plan.Translate only emits predicates spanning the two sides;
			// one side's own predicates were applied by its feeder stage.
			panic("engine: join cross predicate does not span both inputs")
		}
		return [2]int{a, j.RightCopy[b-leftWidth]}, flipped
	}
	var gt [][2]int
	for _, f := range j.CrossFilters {
		if pair, flipped := operands(f.SlotA, f.SlotB); flipped {
			gt = append(gt, pair)
		} else {
			it.preds = append(it.preds, pair)
		}
	}
	it.nLt, it.nGt = len(it.preds), len(gt)
	it.preds = append(it.preds, gt...)
	for _, d := range j.CrossDistinct {
		pair, _ := operands(d[0], d[1])
		it.preds = append(it.preds, pair)
	}
	it.lv = make([]graph.VertexID, len(it.preds))
	return it
}

func (it *joinIter) advanceLeft() (err error) {
	it.leftRow, it.leftOK, err = it.left.Next()
	return err
}

func (it *joinIter) advanceRight() (err error) {
	it.rightRow, it.rightOK, err = it.right.Next()
	return err
}

func (it *joinIter) cmpKeys() int {
	for i := range it.j.LeftKey {
		a, b := it.leftRow[it.j.LeftKey[i]], it.rightRow[it.j.RightKey[i]]
		if a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return 0
}

func (it *joinIter) leftMatchesGroup() bool {
	for i, k := range it.j.LeftKey {
		if it.leftRow[k] != it.groupKey[i] {
			return false
		}
	}
	return true
}

// nextLeft moves to the next left row whose key has a right group, leaving
// the group in rightGroup and the row's predicate operands in lv; ok=false
// when either input is exhausted.
func (it *joinIter) nextLeft() (ok bool, err error) {
	if !it.started {
		it.started = true
		if err := it.advanceLeft(); err != nil {
			return false, err
		}
		if err := it.advanceRight(); err != nil {
			return false, err
		}
	} else if it.inGroup {
		if err := it.advanceLeft(); err != nil {
			return false, err
		}
		it.inGroup = it.leftOK && it.leftMatchesGroup()
	}
	for !it.inGroup {
		if !it.leftOK || !it.rightOK {
			return false, nil
		}
		switch c := it.cmpKeys(); {
		case c < 0:
			err = it.advanceLeft()
		case c > 0:
			err = it.advanceRight()
		default:
			err = it.collectGroup()
		}
		if err != nil {
			return false, err
		}
	}
	for i, p := range it.preds {
		it.lv[i] = it.leftRow[p[0]]
	}
	return true, nil
}

// collectGroup copies every right row with leftRow's key into rightGroup.
func (it *joinIter) collectGroup() error {
	it.rightWidth = len(it.rightRow)
	it.groupKey = it.groupKey[:0]
	for _, k := range it.j.LeftKey {
		it.groupKey = append(it.groupKey, it.leftRow[k])
	}
	it.rightGroup = it.rightGroup[:0]
	for same := true; same; {
		it.rightGroup = append(it.rightGroup, it.rightRow...)
		if err := it.advanceRight(); err != nil {
			return err
		}
		same = it.rightOK
		for i, k := range it.j.RightKey {
			same = same && it.rightRow[k] == it.groupKey[i]
		}
	}
	it.inGroup = true
	return nil
}

// nextBatch streams the join's output rows, up to maxRows at a time.
func (it *joinIter) nextBatch(maxRows int) (*dataflow.Batch, bool, error) {
	b := dataflow.GetBatch(len(it.j.OutLayout), maxRows)
	if _, _, err := it.scan(b, maxRows); err != nil || len(b.Data) == 0 {
		b.Recycle()
		return nil, false, err
	}
	return b, true, nil
}

// scan is the join loop: for every left row with a right group it tests
// the row against each row of the group — the cross predicates read the
// two input rows directly. With a batch it appends the combined rows,
// until limit were emitted. Without one it only counts the matches, for a
// consumer that wants nothing else, until limit pairs were tested: no row
// is built. more=false once the join is exhausted; it resumes mid-group.
func (it *joinIter) scan(b *dataflow.Batch, limit int) (matched uint64, more bool, err error) {
	lt, gt, ne := it.preds[:it.nLt], it.preds[it.nLt:][:it.nGt], it.preds[it.nLt+it.nGt:]
	lvLt, lvGt, lvNe := it.lv[:it.nLt], it.lv[it.nLt:][:it.nGt], it.lv[it.nLt+it.nGt:]
	for limit > 0 {
		if !it.inGroup || it.gi == len(it.rightGroup) {
			ok, err := it.nextLeft()
			if err != nil || !ok {
				return matched, false, err
			}
			it.gi = 0
			copy(it.out, it.leftRow)
		}
		w, grp := it.rightWidth, it.rightGroup[it.gi:]
	pairs:
		for ; len(grp) >= w && limit > 0; grp = grp[w:] {
			g := grp[:w:w]
			if b == nil {
				limit--
			}
			for i, v := range lvLt {
				if v >= g[lt[i][1]] {
					continue pairs
				}
			}
			for i, v := range lvGt {
				if v <= g[gt[i][1]] {
					continue pairs
				}
			}
			for i, v := range lvNe {
				if v == g[ne[i][1]] {
					continue pairs
				}
			}
			matched++
			if b != nil {
				for i, s := range it.j.RightCopy {
					it.out[len(it.leftRow)+i] = g[s]
				}
				b.Append(it.out)
				limit--
			}
		}
		it.gi = len(it.rightGroup) - len(grp)
	}
	return matched, true, nil
}
