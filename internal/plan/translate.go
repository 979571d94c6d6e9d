package plan

import (
	"fmt"
	"slices"

	"repro/internal/dataflow"
	"repro/internal/query"
)

// Translate converts an execution plan into an executable dataflow,
// implementing Algorithm 2 together with the bounded-memory rewrites of
// Section 5.2:
//
//   - a SCAN of a star (v; L) becomes SCAN(edge v–L[0]) chained with |L|-1
//     PULL-EXTEND operators rooted at v;
//   - a pulling wco join (complete star join) becomes one PULL-EXTEND — or
//     a verify-only extend when the star root is already matched;
//   - a pulling hash join (q', q'_l, (v'_r; L)) becomes a verify-extend on
//     V1 = L ∩ V_{q'_l} followed by one PULL-EXTEND per leaf in V2 = L\V1;
//   - a pushing hash join finishes both child pipelines with shuffle feeds
//     and starts a new stage whose source is the PUSH-JOIN.
//
// Symmetry-breaking orders are attached to the earliest operator at which
// both endpoints are matched; injectivity between join sides becomes
// cross-distinct checks on the join output. A sink stage that ends in a
// countable tail gets it marked (markTail). The orders are the query's
// own (Query.Orders), so matches come out in their canonical assignment.
func Translate(p *Plan) (*dataflow.Dataflow, error) {
	return translate(p, p.Q.Orders())
}

// TranslateCount translates p for a run whose answer is a count (with or
// without a match budget): one that delivers no match and groups none, so
// any valid symmetry break serves it. It starts from Translate. When no
// order of the query's own set falls on the sink stage's prefix — the
// vertices matched before its counted tail — the prefix enumerates every
// automorphic image of its rows, and the orders filter only at the tail.
// The stabiliser chain whose bases come first in the sink's output layout
// (Query.OrdersBy) puts an order on the prefix where one can go; p is then
// translated with that set instead, provided its tail is no shorter. The
// plan tree, and so the cost the optimiser priced, is unchanged.
//
// The plan that needs the switch is q7's wco plan, SCAN(v2–v3) → v4 → v5
// → (v1, v6), which a Limit run counts with (and the cluster benchmark
// workload's plan-regret check): q7's set is {v1 < v6}, on the path ends
// that the tail counts, and the chain along the layout gives {v2 < v5}, so
// the prefix enumerates each 3-path once instead of in both directions
// and the path ends become an unordered pair. A labelled q7 whose labels
// keep its reversal (its ends labelled alike, say) takes it on its optimal
// plan as well, since no path separator counts it. No optimal plan of
// q1–q8 or the triangle on the LJ, OR and EU statistics takes the switch:
// the 5-path is counted at its middle edge (below). The rule does not
// switch a prefix that the query's set already orders: which vertex a
// range filter bounds decides its cost on a graph whose hubs have low IDs,
// and the cost model does not see it.
//
// A ladder whose sink stage scans its middle rung, or a 5-path whose sink
// stage scans its middle edge, is counted at that separator
// (dataflow.RungSeparator, dataflow.PathSeparator) under the chain whose
// bases come first in the sink's layout: {v3 < v4, v1 < v5} on q6, the
// rung's order and one between the sides, and {v3 < v4} on q7
// (separatorBreak).
func TranslateCount(p *Plan) (*dataflow.Dataflow, error) {
	df, err := Translate(p)
	if err != nil {
		return nil, err
	}
	if alt := separatorBreak(p, df); alt != nil {
		return alt, nil
	}
	sink := df.Stages[len(df.Stages)-1]
	k, n := countedTail(sink)
	if n == 0 {
		return df, nil
	}
	prefix := vertexMask(sink.SourceLayout)
	if k > 0 {
		prefix = vertexMask(sink.Extends[k-1].OutLayout)
	}
	onPrefix := func(o query.Order) bool { return prefix&(1<<o.A) != 0 && prefix&(1<<o.B) != 0 }
	if slices.ContainsFunc(p.Q.Orders(), onPrefix) {
		return df, nil
	}
	orders := p.Q.OrdersBy(sink.OutputLayout())
	if !slices.ContainsFunc(orders, onPrefix) {
		return df, nil
	}
	alt, err := translate(p, orders)
	if err != nil {
		return nil, err
	}
	return longerTail(df, alt), nil
}

// separatorBreak returns p translated under the stabiliser chain whose
// bases come first in its sink stage's layout when that translation counts
// the stage at a rung or path separator, and nil otherwise. A sink stage
// that scans a ladder's middle rung or a 5-path's middle edge gets that
// edge's order from the chain's first base — and, on the ladder, one order
// between the sides from the second; the query's own orders fall on the
// sides. A stage that scans another edge is not translated again.
func separatorBreak(p *Plan, df *dataflow.Dataflow) *dataflow.Dataflow {
	sink := df.Stages[len(df.Stages)-1]
	if len(df.Stages) != 1 || sink.Scan == nil || sink.Separator != dataflow.NoSeparator {
		return nil
	}
	edge, _, ok := ladder(p.Q)
	if !ok {
		edge, _, ok = fivePath(p.Q)
	}
	if scan := [2]int{min(sink.Scan.QA, sink.Scan.QB), max(sink.Scan.QA, sink.Scan.QB)}; !ok || scan != edge {
		return nil
	}
	alt, err := translate(p, p.Q.OrdersBy(sink.OutputLayout()))
	if err != nil || alt.Stages[0].Separator == dataflow.NoSeparator {
		return nil
	}
	return alt
}

// longerTail returns alt, the same plan translated under another symmetry
// break, unless its sink counts a shorter tail than df's: a prefix halved
// does not pay for a tail that enumerates where it used to count.
func longerTail(df, alt *dataflow.Dataflow) *dataflow.Dataflow {
	_, n := countedTail(df.Stages[len(df.Stages)-1])
	if _, m := countedTail(alt.Stages[len(alt.Stages)-1]); m < n {
		return df
	}
	return alt
}

// countedTail returns where st's counted tail starts and how many extends
// it counts: the marked tail, else the final extension alone, else (a
// stage ending in a verify, or in none) n = 0. A stage counted at a
// separator also reports n = 0: it has no prefix to break symmetry on.
func countedTail(st *dataflow.Stage) (k, n int) {
	if st.Separator != dataflow.NoSeparator {
		return 0, 0
	}
	for i, e := range st.Extends {
		if e.Tail > 0 {
			return i, e.Tail
		}
	}
	if k = len(st.Extends) - 1; k < 0 || st.Extends[k].IsVerify() {
		return 0, 0
	}
	return k, 1
}

// translate is Translate under the symmetry-breaking orders given, which
// must be a valid break of p.Q.
func translate(p *Plan, orders []query.Order) (*dataflow.Dataflow, error) {
	t := &translator{q: p.Q, orders: orders}
	pipe, err := t.node(p.Root)
	if err != nil {
		return nil, fmt.Errorf("plan %s: %v", p.Name, err)
	}
	pipe.stage.Terminal = dataflow.Terminal{Sink: true}
	markTail(t.q, orders, pipe.stage)
	d := &dataflow.Dataflow{Stages: t.stages}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("plan %s: translated dataflow invalid: %v", p.Name, err)
	}
	return d, nil
}

type translator struct {
	q      *query.Query
	orders []query.Order // the symmetry break the operators enforce
	stages []*dataflow.Stage
}

// openPipe is a stage under construction whose tuples can still be extended.
type openPipe struct {
	stage  *dataflow.Stage
	layout []int
	vmask  uint32
}

func (o *openPipe) slotOf(qv int) int {
	for i, v := range o.layout {
		if v == qv {
			return i
		}
	}
	panic(fmt.Sprintf("plan: query vertex v%d not in layout %v", qv+1, o.layout))
}

func (t *translator) newStage(scan *dataflow.EdgeScan, join *dataflow.Join, layout []int) *dataflow.Stage {
	s := &dataflow.Stage{ID: len(t.stages), Scan: scan, JoinSrc: join, SourceLayout: layout}
	t.stages = append(t.stages, s)
	return s
}

func (t *translator) node(n *Node) (*openPipe, error) {
	if n.IsLeaf() {
		return t.scanStar(n.Edges)
	}
	switch {
	case n.Alg == WcoJoin && n.Comm == Pulling:
		return t.pullingWco(n)
	case n.Alg == HashJoin && n.Comm == Pulling:
		return t.pullingHash(n)
	case n.Alg == HashJoin && n.Comm == Pushing:
		return t.pushingHash(n)
	default:
		return nil, fmt.Errorf("unsupported physical setting (%s, %s) — pushing wco plans run on the BiGJoin baseline executor", n.Alg, n.Comm)
	}
}

// scanStar implements the SCAN(star) rewrite of Section 5.2.
func (t *translator) scanStar(em uint32) (*openPipe, error) {
	root, leaves, ok := t.q.StarRoot(em)
	if !ok {
		return nil, fmt.Errorf("join unit edge mask %b is not a star", em)
	}
	scan := &dataflow.EdgeScan{
		QA: root, QB: leaves[0],
		LabelA: t.q.Label(root), LabelB: t.q.Label(leaves[0]),
		EdgeLabel: t.q.EdgeLabelBetween(root, leaves[0]),
	}
	for _, o := range t.orders {
		switch {
		case o.A == root && o.B == leaves[0]:
			scan.Filters = append(scan.Filters, dataflow.OrderFilter{SlotA: 0, SlotB: 1})
		case o.A == leaves[0] && o.B == root:
			scan.Filters = append(scan.Filters, dataflow.OrderFilter{SlotA: 1, SlotB: 0})
		}
	}
	pipe := &openPipe{
		stage:  t.newStage(scan, nil, []int{root, leaves[0]}),
		layout: []int{root, leaves[0]},
		vmask:  1<<root | 1<<leaves[0],
	}
	for _, leaf := range leaves[1:] {
		t.appendExtend(pipe, []int{pipe.slotOf(root)}, leaf)
	}
	return pipe, nil
}

// extEdgeLabels collects the edge-label constraints an extend closes: entry
// i constrains the edge between layout[extSlots[i]] and the target query
// vertex. It returns nil when every closed edge is unconstrained, so
// edge-unlabelled queries produce exactly the operators they always did.
func extEdgeLabels(q *query.Query, layout []int, extSlots []int, target int) []int {
	constrained := false
	labels := make([]int, len(extSlots))
	for i, s := range extSlots {
		labels[i] = q.EdgeLabelBetween(layout[s], target)
		if labels[i] != query.AnyLabel {
			constrained = true
		}
	}
	if !constrained {
		return nil
	}
	return labels
}

// appendExtend adds a PULL-EXTEND matching target via the given slots,
// attaching every symmetry-breaking order between target and an
// already-matched vertex, plus the edge-label constraints of the closed
// edges.
func (t *translator) appendExtend(pipe *openPipe, extSlots []int, target int) {
	var filters []dataflow.NewFilter
	for _, o := range t.orders {
		if o.A == target && pipe.vmask&(1<<o.B) != 0 {
			filters = append(filters, dataflow.NewFilter{Slot: pipe.slotOf(o.B), NewLess: true})
		}
		if o.B == target && pipe.vmask&(1<<o.A) != 0 {
			filters = append(filters, dataflow.NewFilter{Slot: pipe.slotOf(o.A), NewLess: false})
		}
	}
	out := append(append([]int(nil), pipe.layout...), target)
	pipe.stage.Extends = append(pipe.stage.Extends, &dataflow.Extend{
		ExtSlots:    extSlots,
		TargetQV:    target,
		VerifySlot:  -1,
		TargetLabel: t.q.Label(target),
		EdgeLabels:  extEdgeLabels(t.q, pipe.layout, extSlots, target),
		NewFilters:  filters,
		OutLayout:   out,
	})
	pipe.layout = out
	pipe.vmask |= 1 << target
}

func (t *translator) appendVerify(pipe *openPipe, extSlots []int, verifySlot int) {
	pipe.stage.Extends = append(pipe.stage.Extends, &dataflow.Extend{
		ExtSlots:    extSlots,
		TargetQV:    -1,
		VerifySlot:  verifySlot,
		TargetLabel: query.AnyLabel, // the verified vertex is already matched (and label-checked)
		EdgeLabels:  extEdgeLabels(t.q, pipe.layout, extSlots, pipe.layout[verifySlot]),
		OutLayout:   append([]int(nil), pipe.layout...),
	})
}

func (t *translator) pullingWco(n *Node) (*openPipe, error) {
	pipe, err := t.node(n.Left)
	if err != nil {
		return nil, err
	}
	orients := starOrientations(t.q, n.Right.Edges)
	if orients == nil {
		return nil, fmt.Errorf("wco join right side %b is not a star", n.Right.Edges)
	}
	for _, o := range orients {
		allIn := true
		for _, l := range o.Leaves {
			if pipe.vmask&(1<<l) == 0 {
				allIn = false
				break
			}
		}
		if !allIn {
			continue
		}
		extSlots := make([]int, len(o.Leaves))
		for i, l := range o.Leaves {
			extSlots[i] = pipe.slotOf(l)
		}
		if pipe.vmask&(1<<o.Root) != 0 {
			t.appendVerify(pipe, extSlots, pipe.slotOf(o.Root))
		} else {
			t.appendExtend(pipe, extSlots, o.Root)
		}
		return pipe, nil
	}
	return nil, fmt.Errorf("complete star join leaves of %b not matched by left side", n.Right.Edges)
}

func (t *translator) pullingHash(n *Node) (*openPipe, error) {
	pipe, err := t.node(n.Left)
	if err != nil {
		return nil, err
	}
	orients := starOrientations(t.q, n.Right.Edges)
	if orients == nil {
		return nil, fmt.Errorf("pulling hash join right side %b is not a star", n.Right.Edges)
	}
	for _, o := range orients {
		if pipe.vmask&(1<<o.Root) == 0 {
			continue
		}
		var v1Slots []int
		var v2 []int
		for _, l := range o.Leaves {
			if pipe.vmask&(1<<l) != 0 {
				v1Slots = append(v1Slots, pipe.slotOf(l))
			} else {
				v2 = append(v2, l)
			}
		}
		rootSlot := pipe.slotOf(o.Root)
		if len(v1Slots) > 0 {
			t.appendVerify(pipe, v1Slots, rootSlot)
		}
		for _, v := range v2 {
			t.appendExtend(pipe, []int{rootSlot}, v)
		}
		return pipe, nil
	}
	return nil, fmt.Errorf("pulling hash join star root of %b not matched by left side", n.Right.Edges)
}

func (t *translator) pushingHash(n *Node) (*openPipe, error) {
	left, err := t.node(n.Left)
	if err != nil {
		return nil, err
	}
	right, err := t.node(n.Right)
	if err != nil {
		return nil, err
	}
	shared := left.vmask & right.vmask
	if shared == 0 {
		return nil, fmt.Errorf("pushing hash join with empty key")
	}
	var keyQVs []int
	for v := 0; v < t.q.NumVertices(); v++ {
		if shared&(1<<v) != 0 {
			keyQVs = append(keyQVs, v)
		}
	}
	j := &dataflow.Join{LeftStage: left.stage.ID, RightStage: right.stage.ID}
	for _, v := range keyQVs {
		j.LeftKey = append(j.LeftKey, left.slotOf(v))
		j.RightKey = append(j.RightKey, right.slotOf(v))
	}
	out := append([]int(nil), left.layout...)
	for slot, v := range right.layout {
		if shared&(1<<v) == 0 {
			j.RightCopy = append(j.RightCopy, slot)
			out = append(out, v)
		}
	}
	j.OutLayout = out
	slotOut := func(qv int) int {
		for i, v := range out {
			if v == qv {
				return i
			}
		}
		panic("plan: join output missing vertex")
	}
	// Injectivity across sides: left-only vs right-only vertices.
	for ls, lv := range left.layout {
		if shared&(1<<lv) != 0 {
			continue
		}
		for _, rv := range right.layout {
			if shared&(1<<rv) == 0 {
				j.CrossDistinct = append(j.CrossDistinct, [2]int{ls, slotOut(rv)})
			}
		}
	}
	// Symmetry-breaking orders spanning the two sides.
	union := left.vmask | right.vmask
	for _, o := range t.orders {
		bothPresent := union&(1<<o.A) != 0 && union&(1<<o.B) != 0
		inLeft := left.vmask&(1<<o.A) != 0 && left.vmask&(1<<o.B) != 0
		inRight := right.vmask&(1<<o.A) != 0 && right.vmask&(1<<o.B) != 0
		if bothPresent && !inLeft && !inRight {
			j.CrossFilters = append(j.CrossFilters, dataflow.OrderFilter{SlotA: slotOut(o.A), SlotB: slotOut(o.B)})
		}
	}
	joinStage := t.newStage(nil, j, out)
	left.stage.Terminal = dataflow.Terminal{KeySlots: j.LeftKey, ConsumerStage: joinStage.ID, Side: 0}
	right.stage.Terminal = dataflow.Terminal{KeySlots: j.RightKey, ConsumerStage: joinStage.ID, Side: 1}
	return &openPipe{stage: joinStage, layout: out, vmask: union}, nil
}
