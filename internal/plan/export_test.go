package plan

import (
	"repro/internal/dataflow"
	"repro/internal/query"
)

// bigJoinPlan is BiGJoin's native plan: left-deep complete star joins in a
// greedy matching order, wco join, pushing communication.
func bigJoinPlan(q *query.Query) *Plan {
	return &Plan{Q: q, Root: leftDeepWco(q, MatchingOrder(q), Pushing), Name: "bigjoin"}
}

// starJoinPlan: star units, left-deep, hash join, pushing.
func starJoinPlan(q *query.Query) *Plan {
	return &Plan{Q: q, Root: leftDeepUnits(q, starDecomposition(q), HashJoin, Pushing), Name: "starjoin"}
}

// enforcedEdges returns, for a translated dataflow, how many of its
// operators enforce each query edge — the completeness check of the
// translation tests.
func enforcedEdges(d *dataflow.Dataflow) map[[2]int]int {
	counts := map[[2]int]int{}
	add := func(a, b int) {
		if a > b {
			a, b = b, a
		}
		counts[[2]int{a, b}]++
	}
	for _, s := range d.Stages {
		layout := s.SourceLayout
		if s.Scan != nil {
			add(s.Scan.QA, s.Scan.QB)
		}
		if s.DeltaSrc != nil {
			add(s.DeltaSrc.QA, s.DeltaSrc.QB)
		}
		for _, e := range s.Extends {
			if e.IsVerify() {
				for _, slot := range e.ExtSlots {
					add(layout[slot], layout[e.VerifySlot])
				}
			} else {
				for _, slot := range e.ExtSlots {
					add(layout[slot], e.TargetQV)
				}
			}
			layout = e.OutLayout
		}
	}
	return counts
}
