package engine

import (
	"context"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/graph"
	"repro/internal/steal"
)

// stageExec coordinates one stage across all machines: it tracks global
// termination (no active source, no pending batch anywhere) so that
// inter-machine thieves know when to stop, and watches the run's context
// so a cancelled query drains instead of completing.
type stageExec struct {
	eng            *Engine
	st             *dataflow.Stage
	ctx            context.Context
	runs           []*machineRun
	pendingBatches atomic.Int64 // batches enqueued anywhere, not yet fully processed
	sourcesActive  atomic.Int64
	errMu          sync.Mutex
	firstErr       error

	countOp int // the operator that counts instead of materialising, 0 = none (Engine.countOp)
	// byVertex marks a stage that counts K₂,ₖ at its wedge separator:
	// each scanned vertex's rows must reach one counter, so its scan
	// batches and its chunks are cut only between vertices (inter-machine
	// steals move whole batches).
	byVertex bool
}

func (ex *stageExec) done() bool {
	return ex.sourcesActive.Load() == 0 && ex.pendingBatches.Load() == 0 && ex.firstErrFast() == nil
}

// stopped reports that the run's match budget is exhausted: operators halt
// at their next batch boundary — sources stop emitting, extends discard
// dequeued input — and the stage winds down through the normal
// drain-and-join path, not the error path.
func (ex *stageExec) stopped() bool {
	b := ex.eng.cfg.Budget
	return b != nil && b.Exhausted()
}

func (ex *stageExec) firstErrFast() error {
	if err := ex.ctx.Err(); err != nil {
		ex.setErr(err)
	}
	ex.errMu.Lock()
	defer ex.errMu.Unlock()
	return ex.firstErr
}

func (ex *stageExec) err() error { return ex.firstErrFast() }

func (ex *stageExec) setErr(err error) {
	ex.errMu.Lock()
	if ex.firstErr == nil {
		ex.firstErr = err
	}
	ex.errMu.Unlock()
}

// machineRun executes a stage's line of operators on one machine, under the
// BFS/DFS-adaptive scheduler of Algorithm 5. Operator indices: 0 = source,
// 1..E = the E PULL-EXTENDs, E+1 = terminal. queues[i] is the output queue
// of operator i (input of operator i+1); the terminal has no queue.
type machineRun struct {
	ex         *stageExec
	m          *cluster.MachineExec
	source     sourceIter
	sourceDone bool
	// countJoin is set (to the same iterator as source) when the stage is a
	// PUSH-JOIN feeding a counting SINK directly: operator 0 then counts
	// the join's output instead of materialising and queueing it.
	countJoin *joinIter
	// tail is the stage's counted tail as countTail resolved it for this
	// machine, once: the same for every batch of the run.
	tail *tailCount

	mu     sync.Mutex // guards queues/qrows (scheduler vs inter-machine thieves)
	queues [][]*dataflow.Batch
	qrows  []int64

	rng     steal.Rand
	batchNo int

	// curBatch is the adaptive batch-sizing controller's current source
	// batch size (govern.go); 0 until the first sizing decision.
	curBatch int

	// slabs are the per-destination staging buffers of a join-feed
	// terminal, reused from batch to batch.
	slabs [][]graph.VertexID

	// seen and remote are the fetch stage's set and sorted list of a
	// batch's remote vertices, reused from batch to batch.
	seen   map[graph.VertexID]struct{}
	remote []graph.VertexID

	// fan and fanWG are forChunks' per-worker slots and its barrier.
	fan   []chunkWorker
	fanWG sync.WaitGroup
}

func newMachineRun(ex *stageExec, m *cluster.MachineExec, src sourceIter) *machineRun {
	e := len(ex.st.Extends)
	return &machineRun{
		ex:     ex,
		m:      m,
		source: src,
		queues: make([][]*dataflow.Batch, e+1),
		qrows:  make([]int64, e+1),
		rng:    steal.Rand(m.ID*7919 + 13),
	}
}

func (r *machineRun) capacity() int64 { return r.ex.eng.cfg.QueueRows }

func (r *machineRun) outFull(op int) bool {
	c := r.capacity()
	if c < 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.qrows[op] >= c
}

func (r *machineRun) enqueue(op int, b *dataflow.Batch) {
	rows := int64(b.Rows())
	r.ex.pendingBatches.Add(1)
	r.ex.eng.ex.Metrics.AddLiveTuples(rows)
	r.mu.Lock()
	r.queues[op] = append(r.queues[op], b)
	r.qrows[op] += rows
	r.mu.Unlock()
}

// enqueueStolen re-homes batches without touching global accounting (they
// were already pending and live on the victim).
func (r *machineRun) enqueueStolen(op int, bs []*dataflow.Batch) {
	r.mu.Lock()
	for _, b := range bs {
		r.queues[op] = append(r.queues[op], b)
		r.qrows[op] += int64(b.Rows())
	}
	r.mu.Unlock()
}

func (r *machineRun) dequeue(op int) *dataflow.Batch {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := r.queues[op]
	if len(q) == 0 {
		return nil
	}
	b := q[0]
	r.queues[op] = q[1:]
	r.qrows[op] -= int64(b.Rows())
	return b
}

// batchProcessed marks a dequeued batch fully handled: its outputs (if any)
// were enqueued before this is called, so pendingBatches never dips to zero
// while work remains. The batch is recycled here — this is the single
// retirement point every enqueued batch passes through exactly once, and by
// now any SplitRows chunks aliasing its storage have been fully consumed
// (the intersect stage joins its workers before processExtend returns) and
// every downstream consumer has copied what it keeps.
func (r *machineRun) batchProcessed(b *dataflow.Batch) {
	r.ex.eng.ex.Metrics.AddLiveTuples(-int64(b.Rows()))
	r.ex.pendingBatches.Add(-1)
	b.Recycle()
}

// pickOp chooses the next operator: the deepest operator with input, else
// the source if it still has data. This realises Algorithm 5's movement —
// run forward until the output queue fills, then drain downstream before
// backtracking — and inherits its memory bound: each queue holds at most
// capacity + one batch's expansion.
func (r *machineRun) pickOp() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := len(r.queues); i >= 1; i-- {
		if len(r.queues[i-1]) > 0 {
			return i
		}
	}
	if !r.sourceDone {
		return 0
	}
	return -1
}

// loop is the machine's driver: run local work to completion, then steal
// from other machines until the stage is globally done (Section 5.3).
func (r *machineRun) loop() {
	if err := r.run(); err != nil {
		r.ex.setErr(err)
		r.drainOnError()
		return
	}
	if r.ex.firstErrFast() != nil {
		r.drainOnError()
		return
	}
	if r.ex.eng.cfg.LoadBalance != LBSteal || len(r.ex.runs) == 1 {
		return
	}
	// Idle backoff: when no victim has stealable work, sleep with
	// exponential growth (reset on a successful steal) instead of spinning
	// at a fixed 100µs — under high-concurrency serving, dozens of idle
	// machine loops polling flat-out burn CPU that concurrent queries need.
	const (
		idleMin = 100 * time.Microsecond
		idleMax = time.Millisecond
	)
	idle := idleMin
	for !r.ex.done() {
		if r.ex.firstErrFast() != nil {
			r.drainOnError()
			return
		}
		if r.stealOnce() {
			idle = idleMin
			if err := r.run(); err != nil {
				r.ex.setErr(err)
				r.drainOnError()
				return
			}
		} else {
			time.Sleep(idle)
			if idle *= 2; idle > idleMax {
				idle = idleMax
			}
		}
	}
}

// drainOnError discards queued batches so pending counts reach zero and
// peer machines terminate.
func (r *machineRun) drainOnError() {
	if !r.sourceDone {
		r.sourceDone = true
		r.ex.sourcesActive.Add(-1)
	}
	for op := range r.queues {
		for {
			b := r.dequeue(op)
			if b == nil {
				break
			}
			r.batchProcessed(b)
		}
	}
}

// run is the Algorithm 5 scheduler loop for local work.
func (r *machineRun) run() error {
	for {
		if r.ex.firstErrFast() != nil {
			return nil
		}
		op := r.pickOp()
		if op < 0 {
			return nil
		}
		if err := r.runOp(op); err != nil {
			return err
		}
	}
}

// runOp schedules operator op: it consumes as much input as possible
// (driving CPU utilisation high) and yields when its output queue is full.
func (r *machineRun) runOp(op int) error {
	st := r.ex.st
	switch {
	case op == 0:
		for !r.sourceDone && !r.outFull(0) {
			if r.ex.stopped() {
				// Budget exhausted: retire the source as if it had run dry.
				r.sourceDone = true
				r.ex.sourcesActive.Add(-1)
				break
			}
			if r.overMemBudget() {
				// Memory budget blown: fail the run; the error path drains
				// queued batches back to the pool on every machine.
				return ErrMemoryBudget
			}
			rows := r.ex.eng.cfg.BatchRows
			if r.countJoin != nil {
				// Nothing is queued, so outFull never sends control back to
				// run's cancellation check: make it here, once per batch of
				// work like every other boundary check.
				if r.ex.firstErrFast() != nil {
					return nil
				}
				n, more, err := r.countJoin.scan(nil, rows)
				if err != nil {
					return err
				}
				if b := r.ex.eng.cfg.Budget; b != nil {
					n = b.Take(n)
				}
				r.ex.eng.ex.Metrics.Results.Add(n)
				if !more {
					r.sourceDone = true
					r.ex.sourcesActive.Add(-1)
				}
				continue
			}
			if r.ex.eng.cfg.AdaptiveBatch {
				rows = r.adaptiveBatchRows()
			}
			b, ok, err := r.source.nextBatch(rows)
			if err != nil {
				return err
			}
			if !ok {
				r.sourceDone = true
				r.ex.sourcesActive.Add(-1)
				break
			}
			r.enqueue(0, b)
		}
	case op <= len(st.Extends):
		e := st.Extends[op-1]
		for !r.outFull(op) {
			b := r.dequeue(op - 1)
			if b == nil {
				break
			}
			if r.ex.stopped() {
				// Budget exhausted: discard queued input so pending counts
				// drain to zero and every machine terminates.
				r.batchProcessed(b)
				continue
			}
			if r.overMemBudget() {
				// Checked before the expansion, not after: an extend is
				// where one batch can balloon into orders of magnitude more
				// tuples, so this is the boundary that bounds overshoot.
				r.batchProcessed(b)
				return ErrMemoryBudget
			}
			if op == r.ex.countOp {
				// Compression [63]: the matches are counted from the
				// candidate sets without materialisation — the tail's
				// from where it starts, the final extension's without one.
				var n uint64
				var err error
				sep := op == 1 && st.Separator != dataflow.NoSeparator
				if sep {
					n, err = r.countSeparator(b)
				} else {
					n, err = r.countTail(st.Extends[op-1:], b)
				}
				if err != nil {
					return err
				}
				if e.Tail > 0 || sep {
					r.ex.eng.ex.Metrics.TailRows.Add(uint64(b.Rows()))
				}
				r.ex.eng.ex.Metrics.Results.Add(n)
				r.batchProcessed(b)
				continue
			}
			outs, err := r.processExtend(e, b)
			if err != nil {
				return err
			}
			for _, ob := range outs {
				if ob.Rows() > 0 {
					r.enqueue(op, ob)
				} else {
					ob.Recycle()
				}
			}
			r.batchProcessed(b)
		}
	default: // terminal
		for {
			b := r.dequeue(op - 1)
			if b == nil {
				break
			}
			if !st.Terminal.Sink && r.overMemBudget() {
				// A join-feed terminal copies rows into the consumer stage's
				// buffered relations — net memory growth, unlike a sink,
				// which only retires tuples. Same batch-boundary fast-fail.
				r.batchProcessed(b)
				return ErrMemoryBudget
			}
			if err := r.terminal(b); err != nil {
				return err
			}
			r.batchProcessed(b)
		}
	}
	return nil
}

// terminal consumes a finished batch: SINK counts results; a join feed
// shuffles rows to the consumer machines' buffered relations via the
// router, accounting pushed bytes per destination.
func (r *machineRun) terminal(b *dataflow.Batch) error {
	eng := r.ex.eng
	t := r.ex.st.Terminal
	if t.Sink {
		accepted := uint64(b.Rows())
		if eng.cfg.Budget != nil {
			// Claim one budget slot per result; rows beyond the last slot
			// are dropped, so the run totals exactly min(k, total).
			accepted = eng.cfg.Budget.Take(accepted)
		}
		eng.ex.Metrics.Results.Add(accepted)
		if eng.cfg.Groups != nil && t.Group != nil && accepted > 0 {
			// Materialised sink of a grouped run — the plan's final operator
			// was a verify extend or a PUSH-JOIN, so compression didn't
			// apply. Rows are complete matches here; only the budget-granted
			// prefix is attributed, mirroring the compressed path.
			if err := r.groupRows(*t.Group, b, int(accepted)); err != nil {
				return err
			}
		}
		if eng.cfg.OnResult != nil {
			for i := 0; i < int(accepted); i++ {
				eng.cfg.OnResult(b.Row(i))
			}
		}
		return nil
	}
	// Scatter the batch into one slab per destination machine, then hand
	// each slab over whole: one lock per (batch, relation) and one push
	// message per (batch, remote destination).
	sides := eng.joins[t.ConsumerStage].sides[t.Side]
	if r.slabs == nil {
		r.slabs = make([][]graph.VertexID, len(sides))
	}
	eng.ex.Metrics.AddLiveTuples(int64(b.Rows()))
	for off := 0; off < len(b.Data); off += b.Width {
		row := b.Data[off : off+b.Width]
		dest := shuffleDest(row, t.KeySlots, len(sides))
		r.slabs[dest] = append(r.slabs[dest], row...)
	}
	for dest, slab := range r.slabs {
		if len(slab) == 0 {
			continue
		}
		r.slabs[dest] = slab[:0]
		if err := sides[dest].AddRows(slab); err != nil {
			return err
		}
		if dest != r.m.ID {
			eng.ex.PushBytes(uint64(len(slab)) * 4)
		}
	}
	return nil
}

// shuffleDest routes a row to one of k machines by a fixed 64-bit mix
// (splitmix64's finaliser, chained over the key slots) of its join key, so
// equal keys of both join sides meet on the same machine.
func shuffleDest(row []graph.VertexID, keySlots []int, k int) int {
	h := uint64(0x9e3779b97f4a7c15)
	for _, s := range keySlots {
		h ^= uint64(row[s])
		h = (h ^ h>>30) * 0xbf58476d1ce4e5b9
		h = (h ^ h>>27) * 0x94d049bb133111eb
		h ^= h >> 31
	}
	dest, _ := bits.Mul64(h, uint64(k))
	return int(dest)
}

// stealOnce implements the StealWork RPC: pick a random victim with work
// and take half the batches from the input of its top-most unfinished
// operator.
func (r *machineRun) stealOnce() bool {
	runs := r.ex.runs
	n := len(runs)
	start := r.rng.Intn(n)
	for i := 0; i < n; i++ {
		v := runs[(start+i)%n]
		if v == r {
			continue
		}
		op, batches, bytes := v.stealBatches()
		if len(batches) == 0 {
			continue
		}
		r.ex.eng.ex.Metrics.StealsInter.Add(1)
		r.ex.eng.ex.StealBytes(bytes)
		r.enqueueStolen(op, batches)
		return true
	}
	return false
}

// stealBatches removes up to half of the batches from this machine's
// earliest non-empty queue. Returns the queue index, the batches and their
// wire size.
func (r *machineRun) stealBatches() (int, []*dataflow.Batch, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, q := range r.queues {
		if len(q) == 0 {
			continue
		}
		take := (len(q) + 1) / 2
		stolen := make([]*dataflow.Batch, take)
		copy(stolen, q[:take])
		r.queues[i] = append([]*dataflow.Batch{}, q[take:]...)
		var bytes uint64
		for _, b := range stolen {
			rows := int64(b.Rows())
			r.qrows[i] -= rows
			bytes += uint64(rows) * uint64(b.Width) * 4
		}
		return i, stolen, bytes
	}
	return 0, nil, 0
}
