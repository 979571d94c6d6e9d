package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/gen"
	"repro/internal/graph"
)

var fanOutBalances = map[string]LoadBalance{"steal": LBSteal, "static": LBStatic, "pivot": LBPivot}

// fanOutRun builds machine 0's run of an otherwise empty stage: all that
// forChunks reads.
func fanOutRun(g *graph.Graph, lb LoadBalance, machines, workers int) *machineRun {
	ex := cluster.New(g, cluster.Config{NumMachines: machines, Workers: workers, CacheKind: cache.LRBU}).NewExec()
	eng := &Engine{ex: ex, cfg: Config{LoadBalance: lb, Groups: NewGroupAgg()}.withDefaults()}
	st := &stageExec{eng: eng, st: &dataflow.Stage{}, ctx: context.Background()}
	return newMachineRun(st, ex.Machines[0], nil)
}

// rowsBatch returns a width-1 batch holding 0..n-1.
func rowsBatch(n int) *dataflow.Batch {
	b := dataflow.GetBatch(1, n)
	for i := 0; i < n; i++ {
		b.Append([]graph.VertexID{graph.VertexID(i)})
	}
	return b
}

// scratchLog records the scratches a fan-out handed to its workers.
type scratchLog struct {
	mu   sync.Mutex
	seen map[*extendScratch]bool
}

func (l *scratchLog) note(sc *extendScratch) {
	l.mu.Lock()
	if l.seen == nil {
		l.seen = map[*extendScratch]bool{}
	}
	l.seen[sc] = true
	l.mu.Unlock()
}

// released fails unless every logged scratch is in the state release
// leaves it in on its way back to the pool.
func (l *scratchLog) released(t *testing.T, atMost int) {
	t.Helper()
	if len(l.seen) > atMost {
		t.Errorf("%d scratches for %d workers", len(l.seen), atMost)
	}
	for sc := range l.seen {
		if sc.out != nil || sc.outs != nil || sc.gt != nil || len(sc.sets) != 0 {
			t.Errorf("scratch not released: out=%v outs=%d gt=%v sets=%d", sc.out != nil, len(sc.outs), sc.gt != nil, len(sc.sets))
		}
	}
}

// TestForChunksVisitsEveryChunkOnce: under every strategy, worker count and
// chunk count each row of the batch reaches fn exactly once, the rows the
// workers produced all come back, every worker's group table reaches the
// aggregate (so a grouped count equals the ungrouped one) and every
// scratch is released. A batch of one chunk runs on the caller.
func TestForChunksVisitsEveryChunkOnce(t *testing.T) {
	g := gen.PowerLaw(50, 2, 1)
	caller := goroutineHeader()
	for name, lb := range fanOutBalances {
		for _, workers := range []int{1, 2, 4} {
			for _, rows := range []int{0, 1, minChunkRows, 2 * minChunkRows, 1000} { // 0, 1, 1, 2 and 4*workers chunks
				for _, grouped := range []bool{false, true} {
					r := fanOutRun(g, lb, 1, workers)
					visits := make([]atomic.Int32, rows)
					var calls atomic.Int32
					var log scratchLog
					// Two batches through one machineRun: the worker slots are reused.
					for pass := 1; pass <= 2; pass++ {
						b := rowsBatch(rows)
						outs, err := r.forChunks(b, grouped, func(sc *extendScratch, c *dataflow.Batch) error {
							calls.Add(1)
							log.note(sc)
							if on := goroutineHeader(); rows <= minChunkRows && on != caller {
								return fmt.Errorf("a batch of %d rows ran on %q, not the caller's %q", rows, on, caller)
							}
							if grouped != (sc.gt != nil) {
								return fmt.Errorf("grouped=%v but group table=%v", grouped, sc.gt != nil)
							}
							if sc.out == nil {
								sc.out = dataflow.GetBatch(1, 64)
							}
							for i := 0; i < c.Rows(); i++ {
								v := c.Row(i)[0]
								visits[v].Add(1)
								sc.out.Append(c.Row(i))
								if grouped {
									sc.gt.add(uint64(v%3), 1)
								}
							}
							return nil
						})
						id := fmt.Sprintf("%s workers=%d rows=%d grouped=%v pass=%d", name, workers, rows, grouped, pass)
						if err != nil {
							t.Fatalf("%s: %v", id, err)
						}
						for v := range visits {
							if n := int(visits[v].Load()); n != pass {
								t.Fatalf("%s: row %d visited %d times", id, v, n)
							}
						}
						produced := 0
						for _, ob := range outs {
							produced += ob.Rows()
						}
						if produced != rows {
							t.Fatalf("%s: %d output rows, want %d", id, produced, rows)
						}
						if want := min((rows+minChunkRows-1)/minChunkRows, 4*workers) * pass; int(calls.Load()) != want {
							t.Fatalf("%s: fn ran %d times, want %d", id, calls.Load(), want)
						}
						if grouped {
							agg := r.ex.eng.cfg.Groups
							if got := agg.Total(); got != uint64(rows*pass) {
								t.Fatalf("%s: grouped total %d, ungrouped %d", id, got, rows*pass)
							}
							if rows == 1000 && agg.Counts()[0] != uint64(334*pass) {
								t.Fatalf("%s: group 0 holds %d", id, agg.Counts()[0])
							}
						}
						log.released(t, workers*pass)
					}
				}
			}
		}
	}
}

// TestForChunksReturnsChunkError: an error from one chunk is the error
// forChunks returns; the other workers still finish, flush and release.
func TestForChunksReturnsChunkError(t *testing.T) {
	g := gen.PowerLaw(50, 2, 1)
	boom := errors.New("boom")
	for name, lb := range fanOutBalances {
		for _, workers := range []int{1, 2, 4} {
			r := fanOutRun(g, lb, 1, workers)
			var log scratchLog
			_, err := r.forChunks(rowsBatch(1000), true, func(sc *extendScratch, c *dataflow.Batch) error {
				log.note(sc)
				for i := 0; i < c.Rows(); i++ {
					if c.Row(i)[0] == 500 {
						return boom
					}
				}
				sc.gt.add(7, uint64(c.Rows()))
				return nil
			})
			if !errors.Is(err, boom) {
				t.Fatalf("%s workers=%d: err = %v, want boom", name, workers, err)
			}
			log.released(t, workers)
			// Row 500's chunk added nothing; the chunks before it were flushed.
			if got := r.ex.eng.cfg.Groups.Total(); got == 0 || got >= 1000 {
				t.Fatalf("%s workers=%d: %d of 1000 rows reached the aggregate", name, workers, got)
			}
			// The slots carry nothing over: the next batch succeeds.
			if _, err := r.forChunks(rowsBatch(100), true, func(*extendScratch, *dataflow.Batch) error { return nil }); err != nil {
				t.Fatalf("%s workers=%d: error leaked into the next batch: %v", name, workers, err)
			}
		}
	}
}

// TestIntersectWithoutFetchFailsTheRun: reading a remote vertex the fetch
// stage never pulled is a protocol violation, reported as the run's error
// under every load-balancing strategy — never a silent local read.
func TestIntersectWithoutFetchFailsTheRun(t *testing.T) {
	g := gen.PowerLaw(200, 3, 1)
	e := &dataflow.Extend{ExtSlots: []int{0}, TargetQV: 1, TargetLabel: -1, OutLayout: []int{0, 1}}
	for name, lb := range fanOutBalances {
		for _, workers := range []int{1, 2, 4} {
			r := fanOutRun(g, lb, 2, workers)
			pred := r.newCandPred(e)
			extend := func(sc *extendScratch, c *dataflow.Batch) error { return r.extendChunk(e, c, &pred, sc) }
			outs, err := r.forChunks(rowsBatch(g.NumVertices()), false, extend)
			if err == nil || !strings.Contains(err.Error(), "two-stage protocol violated") {
				t.Fatalf("%s workers=%d: err = %v, want the two-stage protocol violation", name, workers, err)
			}
			for _, ob := range outs {
				ob.Recycle()
			}
			// The same batch after its fetch stage extends cleanly.
			b := rowsBatch(g.NumVertices())
			r.fetch(b, e)
			outs, err = r.forChunks(b, false, extend)
			r.m.Release()
			if err != nil {
				t.Fatalf("%s workers=%d: after fetch: %v", name, workers, err)
			}
			produced := 0
			for _, ob := range outs {
				produced += ob.Rows()
			}
			if produced != 2*int(g.NumEdges()) {
				t.Fatalf("%s workers=%d: extended to %d rows, want %d", name, workers, produced, 2*g.NumEdges())
			}
		}
	}
}
