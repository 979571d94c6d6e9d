package engine

import (
	"fmt"
	"sync"

	"repro/internal/dataflow"
	"repro/internal/graph"
)

// GroupAgg is the shared group-count sink of a grouped counting run: the
// additive analogue of Budget. Worker-local group tables (pooled, like
// extendScratch) accumulate per-chunk partial counts with zero contention
// and merge here at chunk/batch boundaries, so the mutex is taken once per
// flushed table rather than once per match. Like Budget, one GroupAgg may
// span several engine.Run invocations — the per-pinned-edge flows of a
// delta-mode run share one per side — which is why it is a standalone value
// threaded through Config rather than run-local state.
type GroupAgg struct {
	mu     sync.Mutex
	counts map[uint64]uint64
}

// NewGroupAgg returns an empty aggregate.
func NewGroupAgg() *GroupAgg {
	return &GroupAgg{counts: make(map[uint64]uint64)}
}

// merge folds a worker-local table into the aggregate.
func (a *GroupAgg) merge(local map[uint64]uint64) {
	if len(local) == 0 {
		return
	}
	a.mu.Lock()
	for k, n := range local {
		a.counts[k] += n
	}
	a.mu.Unlock()
}

// Counts returns the merged per-group tallies. The returned map is a copy;
// it is safe to read (and mutate) after the runs sharing the aggregate have
// finished or while they proceed.
func (a *GroupAgg) Counts() map[uint64]uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[uint64]uint64, len(a.counts))
	for k, n := range a.counts {
		out[k] = n
	}
	return out
}

// Total returns the sum over all groups — by construction equal to the
// run's match count (every counted match lands in exactly one group).
func (a *GroupAgg) Total() uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	var t uint64
	for _, n := range a.counts {
		t += n
	}
	return t
}

// groupTable is the per-worker scratch of grouped counting: a local key →
// count map merged into the shared GroupAgg when the worker finishes its
// chunks, plus a key buffer for the budgeted per-candidate path. Pooled so
// steady-state grouped runs allocate nothing per batch.
type groupTable struct {
	counts map[uint64]uint64
	keys   []uint64
}

var groupTablePool = sync.Pool{New: func() any {
	return &groupTable{counts: make(map[uint64]uint64)}
}}

func getGroupTable() *groupTable { return groupTablePool.Get().(*groupTable) }

func (t *groupTable) add(key, n uint64) {
	if n > 0 {
		t.counts[key] += n
	}
}

// flush merges the table into agg and returns it to the pool.
func (t *groupTable) flush(agg *GroupAgg) {
	agg.merge(t.counts)
	clear(t.counts)
	t.keys = t.keys[:0]
	groupTablePool.Put(t)
}

// groupRows attributes the first n rows of a sunk batch to their groups —
// the materialised-sink counterpart of the compressed path's grouped
// countChunk, used when the final operator is a verify extend or PUSH-JOIN.
func (r *machineRun) groupRows(spec dataflow.GroupSpec, b *dataflow.Batch, n int) error {
	keyer, err := newGroupKeyer(spec, r.ex.st.OutputLayout(), -1, r.m.Graph())
	if err != nil {
		return err
	}
	gt := getGroupTable()
	for i := 0; i < n; i++ {
		gt.add(keyer.rowKey(b.Row(i)), 1)
	}
	gt.flush(r.ex.eng.cfg.Groups)
	return nil
}

// groupKeyer resolves a GroupSpec against one operator's row layout. For
// the compressed-counting path the final extension's target vertex is not a
// row slot — it exists only as a candidate — so any key slot equal to the
// extension target is marked -1 and resolved per candidate. rowDetermined
// distinguishes the two regimes: a row-determined key preserves the count
// fast path (one key per input row, |C| added at once), a target-dependent
// key forces the per-candidate loop.
type groupKeyer struct {
	spec  dataflow.GroupSpec
	g     *graph.Graph
	slot  int // vertex / vertex-label kinds: row slot of QV, or -1 = the extension target
	slotA int // edge-label kind: row slot of QA, or -1
	slotB int
}

// newGroupKeyer positions the spec's query vertices in layout. targetQV is
// the query vertex the current extension matches (-1 at a sink terminal,
// where rows are complete).
func newGroupKeyer(spec dataflow.GroupSpec, layout []int, targetQV int, g *graph.Graph) (*groupKeyer, error) {
	find := func(qv int) (int, error) {
		for s, v := range layout {
			if v == qv {
				return s, nil
			}
		}
		if targetQV >= 0 && qv == targetQV {
			return -1, nil
		}
		return 0, fmt.Errorf("engine: group key vertex v%d not in layout %v", qv+1, layout)
	}
	k := &groupKeyer{spec: spec, g: g, slot: -1, slotA: -1, slotB: -1}
	var err error
	switch spec.Kind {
	case dataflow.GroupByVertex, dataflow.GroupByVertexLabel:
		if k.slot, err = find(spec.QV); err != nil {
			return nil, err
		}
	case dataflow.GroupByEdgeLabel:
		if k.slotA, err = find(spec.QA); err != nil {
			return nil, err
		}
		if k.slotB, err = find(spec.QB); err != nil {
			return nil, err
		}
		if k.slotA == -1 && k.slotB == -1 {
			return nil, fmt.Errorf("engine: group key edge (v%d,v%d) has no matched endpoint", spec.QA+1, spec.QB+1)
		}
	default:
		return nil, fmt.Errorf("engine: unknown group kind %d", int(spec.Kind))
	}
	return k, nil
}

// rowDetermined reports that the key reads only matched row slots, so the
// compressed count fast path can attribute a whole candidate set to one key.
func (k *groupKeyer) rowDetermined() bool {
	if k.spec.Kind == dataflow.GroupByEdgeLabel {
		return k.slotA != -1 && k.slotB != -1
	}
	return k.slot != -1
}

// rowKey derives the group key of a row-determined keyer.
func (k *groupKeyer) rowKey(row []graph.VertexID) uint64 {
	return k.key(row, 0)
}

// candKey derives the group key when candidate v is the extension target.
func (k *groupKeyer) candKey(row []graph.VertexID, v graph.VertexID) uint64 {
	return k.key(row, v)
}

// key maps a (row, target) pair to its group key. Unlabelled dimensions
// follow the graph package's implicit-label-0 convention: graph.Label and
// graph.EdgeLabel return 0 there, so every match lands in group 0.
func (k *groupKeyer) key(row []graph.VertexID, target graph.VertexID) uint64 {
	at := func(slot int) graph.VertexID {
		if slot == -1 {
			return target
		}
		return row[slot]
	}
	switch k.spec.Kind {
	case dataflow.GroupByVertex:
		return uint64(at(k.slot))
	case dataflow.GroupByVertexLabel:
		return uint64(k.g.Label(at(k.slot)))
	default: // GroupByEdgeLabel
		return uint64(k.g.EdgeLabel(at(k.slotA), at(k.slotB)))
	}
}
