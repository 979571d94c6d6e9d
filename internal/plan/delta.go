package plan

// Delta-mode planning: difference-based rewriting of a query into one
// dataflow per query edge, following the incremental-view-maintenance
// decomposition of Berkholz et al. ("Answering FO+MOD queries under
// updates"): an embedding that uses at least one delta edge is counted
// exactly once, at the smallest query-edge position it maps a delta edge
// to. Dataflow i therefore pins query edge i on the delta edge set (a
// DeltaScan source) and restricts every query edge at a position j < i to
// older-epoch edges (Extend.OldEdgeSlots); positions j > i are free. The
// sum of the per-dataflow counts is the number of matches containing at
// least one delta edge — the quantity the serving layer combines across
// the inserted set (on the new snapshot) and the deleted set (on the old
// one) to maintain counts under updates.

import (
	"fmt"

	"repro/internal/dataflow"
	"repro/internal/query"
)

// TranslateDelta builds the delta-mode dataflows of q: one single-stage
// pipeline per query edge, each a DeltaScan followed by worst-case-optimal
// PULL-EXTENDs (every back edge of the newly matched vertex enforced by
// intersection) carrying the old-edge restrictions of the rewriting. The
// dataflows are independent: the engine runs each with Config.DeltaEdges
// set to the pinned edge set and the counts are summed. Symmetry-breaking
// orders are attached exactly as in full translation, so the partition is
// over canonical (order-respecting) embeddings.
func TranslateDelta(q *query.Query) ([]*dataflow.Dataflow, error) {
	edges := q.Edges()
	edgeIdx := make(map[[2]int]int, len(edges))
	for i, e := range edges {
		edgeIdx[e] = i
	}
	flows := make([]*dataflow.Dataflow, 0, len(edges))
	for i, e := range edges {
		d, err := deltaFlow(q, edgeIdx, i, e)
		if err != nil {
			return nil, fmt.Errorf("delta dataflow for edge %d of %s: %v", i, q.Name(), err)
		}
		flows = append(flows, d)
	}
	return flows, nil
}

// deltaFlow builds the pipeline that pins query edge number pin = (a, b).
func deltaFlow(q *query.Query, edgeIdx map[[2]int]int, pin int, e [2]int) (*dataflow.Dataflow, error) {
	a, b := e[0], e[1]
	scan := &dataflow.DeltaScan{
		QA: a, QB: b,
		LabelA: q.Label(a), LabelB: q.Label(b),
		EdgeLabel: q.EdgeLabelBetween(a, b),
	}
	for _, o := range q.Orders() {
		switch {
		case o.A == a && o.B == b:
			scan.Filters = append(scan.Filters, dataflow.OrderFilter{SlotA: 0, SlotB: 1})
		case o.A == b && o.B == a:
			scan.Filters = append(scan.Filters, dataflow.OrderFilter{SlotA: 1, SlotB: 0})
		}
	}
	st := &dataflow.Stage{ID: 0, DeltaSrc: scan, SourceLayout: []int{a, b}}
	layout := []int{a, b}
	matched := uint32(1<<a | 1<<b)
	slotOf := func(qv int) int {
		for s, v := range layout {
			if v == qv {
				return s
			}
		}
		panic(fmt.Sprintf("plan: delta layout missing v%d", qv+1))
	}

	for len(layout) < q.NumVertices() {
		// Next vertex: unmatched, maximum matched query-neighbours (the
		// wco-style connected order), smallest ID on ties.
		best, bestDeg := -1, 0
		for v := 0; v < q.NumVertices(); v++ {
			if matched&(1<<v) != 0 {
				continue
			}
			d := 0
			for _, u := range q.Adj(v) {
				if matched&(1<<u) != 0 {
					d++
				}
			}
			if d > bestDeg {
				best, bestDeg = v, d
			}
		}
		if best < 0 {
			return nil, fmt.Errorf("no connected extension order (query disconnected?)")
		}
		t := best
		var extSlots, oldSlots []int
		for _, u := range q.Adj(t) {
			if matched&(1<<u) == 0 {
				continue
			}
			s := slotOf(u)
			extSlots = append(extSlots, s)
			ce := [2]int{u, t}
			if ce[0] > ce[1] {
				ce[0], ce[1] = ce[1], ce[0]
			}
			if edgeIdx[ce] < pin {
				oldSlots = append(oldSlots, s)
			}
		}
		var filters []dataflow.NewFilter
		for _, o := range q.Orders() {
			if o.A == t && matched&(1<<o.B) != 0 {
				filters = append(filters, dataflow.NewFilter{Slot: slotOf(o.B), NewLess: true})
			}
			if o.B == t && matched&(1<<o.A) != 0 {
				filters = append(filters, dataflow.NewFilter{Slot: slotOf(o.A), NewLess: false})
			}
		}
		out := append(append([]int(nil), layout...), t)
		st.Extends = append(st.Extends, &dataflow.Extend{
			ExtSlots:     extSlots,
			TargetQV:     t,
			VerifySlot:   -1,
			TargetLabel:  q.Label(t),
			EdgeLabels:   extEdgeLabels(q, layout, extSlots, t),
			OldEdgeSlots: oldSlots,
			NewFilters:   filters,
			OutLayout:    out,
		})
		layout = out
		matched |= 1 << t
	}
	st.Terminal = dataflow.Terminal{Sink: true}
	markTail(q, q.Orders(), st)
	d := &dataflow.Dataflow{Stages: []*dataflow.Stage{st}}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}
