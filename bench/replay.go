package main

// The step-by-step replay: the benchmark's own mirror of what huge.System
// does inside Exec, Apply and Open, calling each layer's exported function
// directly with a span around it. It exists so that a traced run can
// attribute a request's time to layers without touching the program; it
// must return what System returns (checked by every caller).
//
// What it copies from package huge — so drift is caught in review:
//
//   - execRun/runPlan: plan family "optimal", or "wco" under Limit and
//     GroupBy; plan.Translate; plan.AttachGroup; Cluster.NewExec;
//     engine.Run; rows re-indexed from slot order to query-vertex order.
//   - engineConfig: QueueRows = huge.DefaultQueueRows and the engine's
//     default batch, Compress on; under Limit QueueRows = 1 and BatchRows =
//     64 (huge's boundedBatchRows); on a governed System without Limit,
//     AdaptiveBatch.
//   - Apply: graph.Apply -> Store.Append -> plan.UpdateStats -> cluster.New
//     -> Store.ShouldCompact/Compact. Subscription maintenance has no
//     exported entry point; it is measured as a difference instead.
//   - Open: store.Open -> Recover -> cluster.New -> re-optimising the
//     persisted plan specs.

import (
	"context"
	"fmt"

	"repro/huge"
	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// boundedBatchRows mirrors huge's batch size for Limit runs.
const boundedBatchRows = 64

// deployment is one System together with what the replay needs to mirror
// it: the options it was built with and an equal partitioning of the graph.
type deployment struct {
	name string
	g    *graph.Graph
	opts huge.Options
	sys  *huge.System
	cl   *cluster.Cluster
}

func clusterConfig(o huge.Options) cluster.Config {
	return cluster.Config{NumMachines: o.Machines, Workers: o.Workers}
}

func deploy(name string, g *graph.Graph, opts huge.Options) *deployment {
	return &deployment{name: name, g: g, opts: opts, sys: huge.NewSystem(g, opts), cl: cluster.New(g, clusterConfig(opts))}
}

// request is one operation of an Exec workload.
type request struct {
	class string
	dep   *deployment
	q     *huge.Query // nil for an ad-hoc request: parsed from text each time
	text  string
	limit int // < 0: unlimited
	// group, when set, makes this a grouped counting run; key is the same
	// grouping in the public API's terms.
	group     *dataflow.GroupSpec
	key       huge.GroupKey
	topGroups int
	family    string // "" = what System picks; else WithPlan(PlanFor(family))
}

func (rq *request) counting() bool { return rq.limit < 0 }

// options renders the request as public Exec options.
func (rq *request) options(q *huge.Query) []huge.Option {
	var opts []huge.Option
	switch {
	case rq.group != nil:
		opts = append(opts, huge.GroupBy(rq.key))
		if rq.topGroups > 0 {
			opts = append(opts, huge.TopGroups(rq.topGroups))
		}
	case rq.counting():
		opts = append(opts, huge.CountOnly())
	default:
		opts = append(opts, huge.Limit(rq.limit))
	}
	if rq.family != "" {
		opts = append(opts, huge.WithPlan(rq.dep.sys.PlanFor(q, rq.family)))
	}
	return opts
}

// outcome is what one request returned, through either path.
type outcome struct {
	q        *huge.Query
	count    uint64
	matches  [][]huge.VertexID
	groupSum uint64 // sum over the group table (grouped runs)
	groups   int
	metrics  metrics.Summary
	engineNs int64 // time inside engine.Run
}

// replayExec is the mirror of System.Exec for one request.
func replayExec(ctx context.Context, tr *tracer, id int, rq *request) (outcome, error) {
	var out outcome
	root := tr.begin(0, id, "exec")
	defer tr.end(root)

	q := rq.q
	if q == nil {
		s := tr.begin(root, id, "query.parse")
		parsed, _, err := huge.ParsePattern("adhoc", rq.text)
		tr.end(s)
		if err != nil {
			return out, err
		}
		q = parsed
		s = tr.begin(root, id, "query.fingerprint")
		_ = q.Fingerprint() // memoised in q: plan.lookup below reuses it
		tr.end(s)
	}
	out.q = q

	family := rq.family
	if family == "" {
		family = "optimal"
		if !rq.counting() || rq.group != nil {
			family = "wco"
		}
	}
	s := tr.begin(root, id, "plan.lookup")
	p := rq.dep.sys.PlanFor(q, family)
	tr.end(s)

	s = tr.begin(root, id, "plan.translate")
	df, err := plan.Translate(p)
	tr.end(s)
	if err != nil {
		return out, err
	}

	cfg := engine.Config{QueueRows: huge.DefaultQueueRows, Compress: true}
	var agg *engine.GroupAgg
	if rq.group != nil {
		if err := plan.AttachGroup(df, *rq.group); err != nil {
			return out, err
		}
		agg = engine.NewGroupAgg()
		cfg.Groups = agg
	}
	var matches chan []huge.VertexID
	if !rq.counting() {
		cfg.Budget = engine.NewBudget(uint64(rq.limit))
		cfg.QueueRows = 1
		cfg.BatchRows = boundedBatchRows
		layout := df.Stages[len(df.Stages)-1].OutputLayout()
		matches = make(chan []huge.VertexID, rq.limit) // the budget grants at most limit rows, so sends never block
		cfg.OnResult = func(row []graph.VertexID) {
			m := make([]huge.VertexID, len(row))
			for slot, qv := range layout {
				m[qv] = row[slot]
			}
			matches <- m
		}
	} else if rq.dep.opts.Governor != nil {
		cfg.AdaptiveBatch = true
	}

	s = tr.begin(root, id, "cluster.new_exec")
	ex := rq.dep.cl.NewExec()
	tr.end(s)

	s = tr.begin(root, id, "engine.run")
	count, err := engine.Run(ctx, ex, df, cfg)
	tr.end(s)
	out.engineNs = tr.spans[s-1].EndNs - tr.spans[s-1].StartNs
	if err != nil {
		return out, err
	}
	out.count = count
	out.metrics = ex.Metrics.Snapshot()
	if matches != nil {
		close(matches)
		for m := range matches {
			out.matches = append(out.matches, m)
		}
	}
	if agg != nil {
		out.groupSum = agg.Total()
		out.groups = len(agg.Counts())
	}
	return out, nil
}

// execVia runs one request through the public API or, with a tracer, the
// step-by-step replay.
func execVia(ctx context.Context, tr *tracer, id int, rq *request) (outcome, error) {
	if tr != nil {
		return replayExec(ctx, tr, id, rq)
	}
	return systemExec(ctx, rq)
}

// systemExec runs one request through the public API, draining a Limit run
// through Stream.Matches.
func systemExec(ctx context.Context, rq *request) (outcome, error) {
	var out outcome
	q := rq.q
	if q == nil {
		parsed, _, err := huge.ParsePattern("adhoc", rq.text)
		if err != nil {
			return out, err
		}
		q = parsed
	}
	out.q = q
	st := rq.dep.sys.Exec(ctx, q, rq.options(q)...)
	for m := range st.Matches() {
		out.matches = append(out.matches, m)
	}
	res, err := st.Wait()
	if err != nil {
		return out, err
	}
	out.count = res.Count
	out.metrics = res.Metrics
	out.engineNs = res.Elapsed.Nanoseconds()
	out.groups = len(res.Groups)
	for _, g := range res.Groups {
		out.groupSum += g.Count
	}
	return out, nil
}

// verifyMatches checks a Limit run's answer: exactly k matches, each an
// embedding of q in g (every query edge present, label constraints met,
// vertices distinct).
func verifyMatches(g *graph.Graph, q *huge.Query, k int, matches [][]huge.VertexID) error {
	if len(matches) != k {
		return fmt.Errorf("%s: %d matches, want exactly %d", q.Name(), len(matches), k)
	}
	for _, m := range matches {
		if len(m) != q.NumVertices() {
			return fmt.Errorf("%s: match %v has %d vertices", q.Name(), m, len(m))
		}
		for _, e := range q.Edges() {
			if !g.HasEdge(m[e[0]], m[e[1]]) {
				return fmt.Errorf("%s: match %v lacks data edge for query edge %v", q.Name(), m, e)
			}
		}
		for v := range m {
			if l := q.Label(v); l != query.AnyLabel && int(g.Label(m[v])) != l {
				return fmt.Errorf("%s: match %v: vertex %d has label %d, want %d", q.Name(), m, v, g.Label(m[v]), l)
			}
			for w := 0; w < v; w++ {
				if m[w] == m[v] {
					return fmt.Errorf("%s: match %v repeats a vertex", q.Name(), m)
				}
			}
		}
	}
	return nil
}

// applyReplay is the mirror of System.Apply's state: the snapshot chain the
// replay advances on its own, next to (never through) a System.
type applyReplay struct {
	g     *graph.Graph
	stats plan.GraphStats
	cfg   cluster.Config
	st    *store.Store // nil for an in-memory deployment
}

func newApplyReplay(g *graph.Graph, opts huge.Options, st *store.Store) *applyReplay {
	return &applyReplay{g: g, stats: plan.ComputeStats(g), cfg: clusterConfig(opts), st: st}
}

func (a *applyReplay) snapshotData() store.SnapshotData {
	return store.SnapshotData{CSR: a.g.Export(), Stats: a.stats}
}

// apply advances the replay by one delta, one span per layer call.
func (a *applyReplay) apply(tr *tracer, id int, d huge.Delta) error {
	root := tr.begin(0, id, "apply")
	defer tr.end(root)

	s := tr.begin(root, id, "graph.apply")
	ng, applied := graph.Apply(a.g, d)
	tr.end(s)

	if a.st != nil {
		s = tr.begin(root, id, "store.append")
		err := a.st.Append(ng.Epoch(), d)
		tr.end(s)
		if err != nil {
			return err
		}
	}

	s = tr.begin(root, id, "plan.update_stats")
	stats := plan.UpdateStats(a.stats, a.g, ng, applied)
	tr.end(s)

	s = tr.begin(root, id, "cluster.new")
	_ = cluster.New(ng, a.cfg)
	tr.end(s)

	a.g, a.stats = ng, stats
	if a.st != nil && a.st.ShouldCompact() {
		s = tr.begin(root, id, "store.compact")
		err := a.st.Compact(a.snapshotData())
		tr.end(s)
		if err != nil {
			return err
		}
	}
	return nil
}

// replayOpen is the mirror of huge.Open on a store directory: it returns
// the recovered state. The store is opened with automatic compaction off so
// that closing it leaves the image as found.
func replayOpen(tr *tracer, id int, dir string, opts huge.Options) (store.Recovered, error) {
	root := tr.begin(0, id, "open")
	defer tr.end(root)

	s := tr.begin(root, id, "store.open")
	st, err := store.Open(dir, store.Options{CompactEvery: -1})
	tr.end(s)
	if err != nil {
		return store.Recovered{}, err
	}
	defer st.Close()

	s = tr.begin(root, id, "store.recover")
	rec, err := st.Recover()
	tr.end(s)
	if err != nil {
		return rec, err
	}

	s = tr.begin(root, id, "cluster.new")
	_ = cluster.New(rec.Graph, clusterConfig(opts))
	tr.end(s)

	s = tr.begin(root, id, "plan.rewarm")
	card := plan.MomentEstimator(rec.Stats)
	for _, spec := range rec.Plans {
		q := query.NewEdgeLabeled(spec.Name, spec.Edges, spec.VLabels, spec.ELabels)
		if spec.Family == "wco" {
			_ = plan.HugeWcoPlanStats(q, rec.Stats)
		} else {
			_ = plan.Optimize(q, plan.Config{NumMachines: opts.Machines, GraphEdges: float64(rec.Graph.NumEdges()), Card: card})
		}
	}
	tr.end(s)
	return rec, nil
}
