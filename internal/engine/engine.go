// Package engine is HUGE's compute engine (Sections 4 and 5 of the paper):
// it executes a translated dataflow on a simulated cluster with
//
//   - two-stage, lock-free, zero-copy PULL-EXTEND over the LRBU cache
//     (Algorithm 4),
//   - buffered, disk-spilling PUSH-JOIN (Section 4.3),
//   - the BFS/DFS-adaptive scheduler with fixed-capacity output queues
//     (Algorithm 5), which bounds memory per Theorem 5.4,
//   - two-layer intra-/inter-machine work stealing (Section 5.3).
//
// Every run executes against a cluster.Exec — the execution context that
// owns the metrics sink and one cluster.MachineExec per machine — so any
// number of runs may proceed concurrently on one cluster.Cluster, each on
// its own Exec (an Exec carries runs one after another, never two at
// once). A MachineExec is all the engine knows of a machine: which
// vertices it owns, the graph, and Want / Fetch / Neighbors / Release for
// adjacency; the cache and its protocol are the machine's business.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/graph"
)

// LoadBalance selects the load-balancing strategy (Exp-8 ablation).
type LoadBalance int

const (
	// LBSteal is HUGE's two-layer work stealing.
	LBSteal LoadBalance = iota
	// LBStatic disables stealing: chunks are assigned round-robin and
	// machines never steal (HUGE-NOSTL).
	LBStatic
	// LBPivot distributes by the first matched (pivot) vertex, like the
	// region groups of RADS (HUGE-RGP).
	LBPivot
)

// Config controls one engine run.
type Config struct {
	// BatchRows is the batch size (paper default 512K rows; tests use less).
	BatchRows int
	// QueueRows is the per-operator output-queue capacity in rows.
	// -1 means unbounded (pure BFS); 0 or 1 yields after every batch
	// (pure DFS); anything else is the adaptive middle ground.
	QueueRows int64
	// LoadBalance picks the Exp-8 strategy. Inter-machine stealing is on
	// only for LBSteal.
	LoadBalance LoadBalance
	// JoinBufferRows is the in-memory threshold, in rows, of each PUSH-JOIN
	// buffer — there is one per (join, side, machine): a buffer that
	// reaches it is sorted and written to disk as one run, and the join
	// merges the runs back. 0 or less means 1<<20 rows (16 MB of 4-slot
	// tuples), below which a join input is sorted and joined in memory.
	// Metrics.JoinSpillRuns / JoinSpillBytes report what was spilled.
	JoinBufferRows int
	// OnResult, when set, receives every result row (must be cheap and
	// safe for concurrent calls). Used by tests and the path examples.
	OnResult func(row []graph.VertexID)
	// Compress enables the generic compression optimisation of Qiao et
	// al. [63], which the paper applies "whenever it is possible in all
	// implementations": when the final operator before a counting SINK is
	// a PULL-EXTEND, its matches are counted directly from the candidate
	// sets instead of being materialised, shuffled and re-counted; a
	// PUSH-JOIN feeding the SINK directly is counted too. When the stage
	// ends in a marked tail (Extend.Tail), counting starts where the tail
	// does, with one closed form per prefix row: C(|S|, k) for k twins,
	// |S_a|·|S_b| − |S_a ∩ S_b| or the ordered pairs of one merge for two
	// sets. A stage marked with a separator (dataflow.Separator) counts at
	// its first extend, per separator image: Σ C(wedges, k) per scanned
	// vertex for K₂,ₖ, half the vertex-disjoint pairs of side completions
	// per scanned rung for the ladder, the vertex-disjoint pairs of 2-paths
	// per scanned middle edge for the 5-path. A group key that reads a
	// vertex counted there leaves the final extend to count.
	// Ignored when OnResult is set (rows must then exist).
	Compress bool
	// DeltaEdges is the pinned edge set of a delta-mode run: DeltaScan
	// sources iterate it (instead of the full edge set) and
	// Extend.OldEdgeSlots constraints exclude its members from earlier
	// query-edge positions. Must be non-nil when the dataflow contains a
	// DeltaScan; ignored otherwise.
	DeltaEdges *graph.EdgeSet
	// Groups, when non-nil, is the shared group-count aggregate of a
	// grouped counting run: the sink stage must carry a matching
	// Terminal.Group spec, and every counted match also increments the
	// group named by its key — inside the compressed counting path when it
	// applies, at the sink terminal otherwise. Like Budget, one GroupAgg may
	// be shared across several Run invocations (delta-mode flows merge
	// additively). Under a Budget, groups see exactly the granted share.
	Groups *GroupAgg
	// MemBudgetRows, when positive, is the run's live intermediate-tuple
	// ceiling: operators compare Metrics.LiveTuples against it at batch
	// boundaries and the run fails with ErrMemoryBudget once exceeded —
	// the memory twin of the match Budget's cooperative halt, except that
	// blowing a memory budget is an error, not completion. The overshoot
	// is bounded by one batch's expansion per machine.
	MemBudgetRows int64
	// AdaptiveBatch replaces the fixed BatchRows with the source-side
	// sizing controller: batches start at 64 rows for interactive latency
	// and grow geometrically towards BatchRows while queues stay shallow,
	// shrinking under queue pressure. BatchRows becomes the ceiling.
	AdaptiveBatch bool
	// Budget, when non-nil, is the shared match budget of a top-k run:
	// the sink (and the compressed counting path) claim slots per result,
	// and once the budget is exhausted every stage halts cooperatively at
	// its next batch boundary — sources stop emitting, extends discard
	// queued input, later stages are skipped — so the run produces exactly
	// min(k, total) matches without enumerating the rest. The same Budget
	// may be shared across several Run invocations (delta-mode flows).
	Budget *Budget
}

func (c Config) withDefaults() Config {
	if c.BatchRows <= 0 {
		c.BatchRows = 4096
	}
	if c.QueueRows == 0 {
		c.QueueRows = 1 // minimum one batch in flight: DFS
	}
	if c.JoinBufferRows <= 0 {
		c.JoinBufferRows = 1 << 20
	}
	return c
}

// Engine runs one dataflow on one execution context.
type Engine struct {
	ex    *cluster.Exec
	df    *dataflow.Dataflow
	cfg   Config
	joins map[int]*joinBuffers
}

// joinBuffers holds the shuffled inputs of one PUSH-JOIN: one Relation per
// (side, machine).
type joinBuffers struct {
	sides [2][]*Relation
}

// Run executes df on the execution context ex and returns the number of
// results this run produced. Cancelling ctx aborts the run (queued work is
// drained and discarded) and Run returns the context's error.
//
// One ex may carry any number of runs one after another, never two at once:
// each Run returns its own count, while ex.Metrics accumulates over all of
// them and the machines' adjacency caches stay warm from run to run — the
// per-pinned-edge flows of a delta side share one context this way.
func Run(ctx context.Context, ex *cluster.Exec, df *dataflow.Dataflow, cfg Config) (uint64, error) {
	if err := df.Validate(); err != nil {
		return 0, err
	}
	if sink := df.Stages[len(df.Stages)-1]; (sink.Terminal.Group != nil) != (cfg.Groups != nil) {
		// Half-configured grouping would silently drop per-group counts
		// (spec without aggregate) or return an empty table (aggregate
		// without spec); both are caller bugs, so fail loudly.
		return 0, fmt.Errorf("engine: grouped run needs both a sink GroupSpec and Config.Groups (spec=%v, agg=%v)",
			sink.Terminal.Group != nil, cfg.Groups != nil)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	before := ex.Metrics.Results.Load()
	e := &Engine{ex: ex, df: df, cfg: cfg.withDefaults(), joins: map[int]*joinBuffers{}}
	k := len(ex.Machines)
	for _, st := range df.Stages {
		if st.JoinSrc == nil {
			continue
		}
		jb := &joinBuffers{}
		for side := 0; side < 2; side++ {
			feeder := st.JoinSrc.LeftStage
			keys := st.JoinSrc.LeftKey
			if side == 1 {
				feeder = st.JoinSrc.RightStage
				keys = st.JoinSrc.RightKey
			}
			width := len(df.Stages[feeder].OutputLayout())
			for m := 0; m < k; m++ {
				rel := NewRelation(width, keys, e.cfg.JoinBufferRows,
					func(rows int) { ex.Metrics.AddLiveTuples(-int64(rows)) })
				rel.metrics = ex.Metrics
				jb.sides[side] = append(jb.sides[side], rel)
			}
		}
		e.joins[st.ID] = jb
	}
	// Whatever path Run exits by — completion, error, cancellation between
	// stages — every join relation must be released: Discard returns
	// buffered rows to the live-tuple accounting (via the relation's
	// release hook) and removes spill files. Relations the consumer stage
	// already drained are no-ops here.
	defer func() {
		for _, jb := range e.joins {
			for side := range jb.sides {
				for _, rel := range jb.sides[side] {
					rel.Discard()
				}
			}
		}
	}()
	for _, st := range df.Stages {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		if cfg.Budget != nil && cfg.Budget.Exhausted() {
			// Top-k early termination: the budget was claimed in full (by an
			// earlier stage of this run, or an earlier run sharing the
			// budget), so the remaining stages could only produce matches
			// nobody may count. The deferred Discard above releases any join
			// relations the skipped stages would have consumed.
			break
		}
		if err := e.runStage(ctx, st); err != nil {
			return 0, err
		}
	}
	return ex.Metrics.Results.Load() - before, nil
}

// countOp picks the operator of st that counts its matches instead of
// materialising them (compression [63]), or 0 when none may: the first
// extend of a stage counted at its separator, or the start of a marked
// tail, when the run's group key reads no vertex counted there (a rung
// or path separator's key reads its sides, so a grouped run never counts
// at one);
// else the final PULL-EXTEND before a counting SINK — the tail of one.
func (e *Engine) countOp(st *dataflow.Stage) int {
	last := len(st.Extends)
	if !e.cfg.Compress || e.cfg.OnResult != nil || !st.Terminal.Sink || last == 0 {
		return 0
	}
	grouped := e.cfg.Groups != nil && st.Terminal.Group != nil
	keyed := func(layout []int) bool {
		k, err := newGroupKeyer(*st.Terminal.Group, layout, -1, nil)
		return err == nil && k.rowDetermined()
	}
	switch st.Separator {
	case dataflow.WedgeSeparator:
		if !grouped || keyed(wedgeKeyLayout(st)) {
			return 1
		}
	case dataflow.RungSeparator, dataflow.PathSeparator:
		if !grouped {
			return 1
		}
	}
	for i, x := range st.Extends {
		if x.Tail > 0 && (!grouped || keyed(x.OutLayout[:len(x.OutLayout)-1])) {
			return i + 1
		}
	}
	if st.Extends[last-1].IsVerify() {
		return 0
	}
	return last
}

// runStage executes one stage on every machine with a barrier at the end.
func (e *Engine) runStage(ctx context.Context, st *dataflow.Stage) error {
	ex := &stageExec{eng: e, st: st, ctx: ctx, countOp: e.countOp(st)}
	ex.byVertex = ex.countOp == 1 && st.Separator == dataflow.WedgeSeparator
	k := len(e.ex.Machines)
	ex.sourcesActive.Store(int64(k))

	// A PUSH-JOIN feeding a counting SINK directly is counted, not
	// materialised — the condition under which runOp counts a final
	// PULL-EXTEND (countTail), minus what only an extend can do: group.
	countJoin := st.JoinSrc != nil && len(st.Extends) == 0 && st.Terminal.Sink &&
		e.cfg.Compress && e.cfg.OnResult == nil && e.cfg.Groups == nil

	var iterCleanup []RowIter
	var bufferedRows int64
	for _, m := range e.ex.Machines {
		var src sourceIter
		var join *joinIter
		if st.Scan != nil {
			scan := newScanIter(m, st.Scan)
			scan.byVertex = ex.byVertex
			src = scan
		} else if st.DeltaSrc != nil {
			src = newDeltaScanIter(m, st.DeltaSrc, e.cfg.DeltaEdges)
		} else {
			jb := e.joins[st.ID]
			bufferedRows += int64(jb.sides[0][m.ID].Rows() + jb.sides[1][m.ID].Rows())
			li, err := jb.sides[0][m.ID].Finalize()
			if err != nil {
				return err
			}
			ri, err := jb.sides[1][m.ID].Finalize()
			if err != nil {
				return err
			}
			iterCleanup = append(iterCleanup, li, ri)
			join = newJoinIter(st.JoinSrc, li, ri)
			src = join
		}
		run := newMachineRun(ex, m, src)
		if countJoin {
			run.countJoin = join
		}
		ex.runs = append(ex.runs, run)
	}

	if len(ex.runs) == 1 {
		// A lone machine has no one to steal from or be stolen by: its loop
		// runs on the calling goroutine, and a run of a few rows starts no
		// goroutine at all.
		ex.runs[0].loop()
	} else {
		var wg sync.WaitGroup
		for _, r := range ex.runs {
			wg.Add(1)
			go func(r *machineRun) {
				defer wg.Done()
				r.loop()
			}(r)
		}
		wg.Wait()
	}

	for _, it := range iterCleanup {
		if err := it.Close(); err != nil && ex.err() == nil {
			ex.setErr(err)
		}
	}
	if bufferedRows > 0 {
		e.ex.Metrics.AddLiveTuples(-bufferedRows)
	}
	if err := ex.err(); err != nil {
		// Report cancellation plainly only when it is what aborted the
		// stage; a genuine failure that merely coincides with cancellation
		// (e.g. disk full while the deadline expires) must not be masked.
		if ctxErr := ctx.Err(); ctxErr != nil && errors.Is(err, ctxErr) {
			return ctxErr
		}
		return fmt.Errorf("engine: stage %d: %w", st.ID, err)
	}
	if ex.pendingBatches.Load() != 0 || ex.sourcesActive.Load() != 0 {
		return fmt.Errorf("engine: stage %d terminated with pending work (batches=%d sources=%d)",
			st.ID, ex.pendingBatches.Load(), ex.sourcesActive.Load())
	}
	return nil
}
