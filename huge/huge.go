// Package huge is the public API of this repository: a from-scratch Go
// reproduction of "HUGE: An Efficient and Scalable Subgraph Enumeration
// System" (SIGMOD 2021). It wires together the optimiser (internal/plan),
// the pushing/pulling-hybrid compute engine (internal/engine) and the
// simulated shared-nothing cluster (internal/cluster) behind a small
// surface:
//
//	g := huge.Generate("LJ", 1)                  // or huge.LoadEdgeList(r)
//	sys := huge.NewSystem(g, huge.Options{Machines: 4})
//	res, err := sys.Exec(ctx, huge.Q1(), huge.CountOnly()).Wait()
//	fmt.Println(res.Count, res.Metrics.BytesPulled)
//
// Exec is the single query entry point: it takes composable options —
// Limit(k) for engine-side top-k early termination, CountOnly for the
// compressed counting path, WithPlan for a hand-picked plan, Timeout,
// OnMatch for callback delivery, GroupBy/Histogram/TopGroups for
// engine-side aggregation — and returns a *Stream that is both a pull
// iterator over the matches (Next / Matches) and the carrier of the
// run's Result (Wait).
//
// GroupBy(key) turns a run into a grouped counting run: matches are
// tallied per group key — a query vertex's matched data vertex
// (VertexVar), its label (VertexLabelOf), or a matched edge's label
// (EdgeLabelOf) — inside the compressed counting path, so grouped
// counts cost what CountOnly costs and never materialise a match.
// Workers accumulate into pooled local tables that merge additively at
// the sink; TopGroups(k) keeps the k largest groups (ranked), and
// Histogram(b) adds a log2 profile over all group sizes. Grouping
// composes with Limit (groups see exactly the granted share) and with
// Delta views (per-group created/vanished counts, Result.Groups[i].Dead,
// preserving the per-group delta identity).
//
// A System is a concurrent query service: every run executes in its own
// isolated execution context (metrics, caches, join buffers), so any
// number of goroutines — or Sessions, the per-client handle — may query
// one System at once. Optimised plans are memoised in a fingerprint-keyed
// LRU, so repeated (even relabelled) patterns skip the optimiser.
//
// A System can also be durable: Create roots a persistent store (CSR
// snapshots plus a write-ahead epoch log of every Apply) in a directory,
// Open recovers it after a restart or crash without re-reading the edge
// list — statistics fingerprints byte-equal, plan cache re-warmed — and
// AsOf(epoch) pins a Session to any logged historical graph version for
// time-travel reads. See persist.go and huge.PersistConfig.
//
// Queries may carry per-vertex label constraints (NewLabeledQuery, or the
// ":<label>" pattern syntax) against labelled graphs (GenerateLabeled,
// LoadLabeledEdgeList, WithLabels): plans exploit label selectivity, scans
// seed from the per-label index, and the plan cache distinguishes label
// signatures — with zero API or cache impact on unlabelled callers.
// Edges are first-class too: graphs may carry per-edge labels
// (GenerateEdgeLabeled, LoadLabeledEdgeList, WithEdgeLabels) and
// queries per-edge constraints (NewEdgeLabeledQuery, or the "-[<label>]-"
// pattern syntax); scans then seed from the (srcLabel, edgeLabel) triple
// index and the optimiser orders rare edge labels first.
//
// The data graph is versioned. System.Apply merges a Delta (edge
// insertions/deletions, label changes) into a new immutable snapshot and
// returns its epoch; Sessions stay pinned to the snapshot they opened on
// (Session.Refresh re-pins), and q.Delta() runs enumerate only the match
// delta of the latest update — full(t) + Result.Delta == full(t+1) — so
// repeated patterns stay warm while the graph changes underneath.
//
// For consumers that want every update's match delta pushed to them,
// System.Subscribe registers a standing query: after each Apply the system
// runs ONE shared delta enumeration per distinct pattern (subscriptions
// are grouped by canonical fingerprint, so relabelled twins share a run)
// and fans the labelled match deltas out to all subscribers over bounded
// buffered channels — non-blocking, with a per-subscription slow-consumer
// policy (SubShed marks gaps in Event.Missed; SubDisconnect closes with
// ErrSlowConsumer). 100K subscribers over a handful of patterns cost a
// handful of enumerations per Apply, not 100K.
//
// A System can be resource-governed (Options.Governor) for mixed-traffic
// serving: an admission gate caps concurrent runs at MaxConcurrent with
// priority-ordered queueing (the Priority option / Session.SetPriority;
// an anti-starvation rotation; higher-priority arrivals displace queued
// background work when the queue is full; reserved ExpressSlots keep
// interactive requests from ever waiting behind a heavy enumeration).
// Per-run memory budgets (MemoryBudget / RunMemoryRows) fail a run with
// ErrMemoryBudget at a batch boundary once its live intermediate tuples
// exceed the budget; a global envelope (GlobalMemoryRows) sheds new
// arrivals and cancels lowest-priority victims while the cross-run gauge
// is over it; and governed sources size batches adaptively — start
// small, grow while queues stay shallow, shrink under pressure.
// Overload surfaces only through the typed fast-fail taxonomy —
// ErrOverloaded, ErrMemoryBudget, ErrInvalidOption, all errors.Is-able —
// never as collapse; System.GovernorStats exposes the counters.
package huge

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// Re-exported core types, so applications only import this package.
type (
	// Graph is an immutable undirected data graph in CSR form.
	Graph = graph.Graph
	// VertexID identifies a data-graph vertex.
	VertexID = graph.VertexID
	// LabelID identifies a vertex label in a labelled data graph.
	LabelID = graph.LabelID
	// Delta is a batch of graph updates (edge insertions/deletions/relabels
	// and vertex label changes) for System.Apply.
	Delta = graph.Delta
	// VertexLabel is one vertex-label assignment inside a Delta.
	VertexLabel = graph.VertexLabel
	// EdgeLabel is one edge-relabel operation inside a Delta.
	EdgeLabel = graph.EdgeLabel
	// Query is a connected query (pattern) graph with symmetry-breaking
	// orders derived from its automorphism group.
	Query = query.Query
	// Plan is an execution plan (join tree with physical settings).
	Plan = plan.Plan
	// Summary is the metric snapshot of one run.
	Summary = metrics.Summary
	// MaintenanceSummary is the cumulative standing-query maintenance
	// counter snapshot of a System (System.MaintenanceStats).
	MaintenanceSummary = metrics.MaintenanceSummary
)

// NewQuery builds a query graph from an edge list over vertices 0..n-1.
func NewQuery(name string, edges [][2]int) *Query { return query.New(name, edges) }

// AnyLabel is the wildcard label constraint for NewLabeledQuery.
const AnyLabel = query.AnyLabel

// NewLabeledQuery builds a label-constrained query graph: labels[v] is the
// data label query vertex v must match, or AnyLabel for no constraint.
// Labelled queries run through the same sessions, plan cache and engine as
// unlabelled ones; their canonical fingerprints encode the label signature,
// so the cache never conflates differently-labelled twins.
func NewLabeledQuery(name string, edges [][2]int, labels []int) *Query {
	return query.NewLabeled(name, edges, labels)
}

// NewEdgeLabeledQuery is NewLabeledQuery with per-edge constraints too:
// elabels[i] is the data edge label edges[i] must carry, or AnyLabel for
// no constraint. Either label slice may be nil. Edge-labelled queries
// fingerprint apart from their unlabelled twins (never a shared plan-cache
// entry) while unlabelled fingerprints are unchanged.
func NewEdgeLabeledQuery(name string, edges [][2]int, labels, elabels []int) *Query {
	return query.NewEdgeLabeled(name, edges, labels, elabels)
}

// The paper's benchmark queries (Figure 4) and the triangle.
func Q1() *Query       { return query.Q1() }
func Q2() *Query       { return query.Q2() }
func Q3() *Query       { return query.Q3() }
func Q4() *Query       { return query.Q4() }
func Q5() *Query       { return query.Q5() }
func Q6() *Query       { return query.Q6() }
func Q7() *Query       { return query.Q7() }
func Q8() *Query       { return query.Q8() }
func Triangle() *Query { return query.Triangle() }

// QueryByName resolves "q1".."q8" or "triangle" (nil if unknown).
func QueryByName(name string) *Query { return query.ByName(name) }

// FromEdges builds a data graph from an undirected edge list.
func FromEdges(edges [][2]VertexID) *Graph { return graph.FromEdges(edges) }

// LoadEdgeList reads a whitespace-separated edge list ('#' comments).
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// LoadLabeledEdgeList reads the labelled edge-list format: "u v" edge lines,
// "u v <label>" edge-labelled lines and "v <id> <label>" vertex-label lines
// (a strict superset of the plain format — a file without label lines
// loads as an unlabelled graph).
func LoadLabeledEdgeList(r io.Reader) (*Graph, error) { return graph.ReadLabeledEdgeList(r) }

// WithLabels attaches per-vertex labels to a graph, sharing its CSR arrays
// (len(labels) must equal g.NumVertices()).
func WithLabels(g *Graph, labels []LabelID) *Graph { return graph.WithLabels(g, labels) }

// WithEdgeLabels attaches per-edge labels to a graph, sharing its CSR
// arrays: label is invoked once per direction of each undirected edge with
// canonical endpoints u < v and must be a pure function of them.
func WithEdgeLabels(g *Graph, label func(u, v VertexID) LabelID) *Graph {
	return graph.WithEdgeLabels(g, label)
}

// Generate creates a synthetic stand-in for one of the paper's datasets
// (GO, LJ, OR, UK, EU, FS, CW) at the given scale multiplier.
func Generate(dataset string, scale int) *Graph { return gen.ByName(dataset, scale) }

// GenerateLabeled is Generate with Zipf-distributed vertex labels attached:
// the labelled twin of the named dataset. numLabels <= 0 selects the
// default alphabet (gen.DefaultNumLabels); label 0 is the frequent head and
// the last label the rare tail.
func GenerateLabeled(dataset string, scale, numLabels int) *Graph {
	return gen.LabeledByName(dataset, scale, numLabels)
}

// GenerateEdgeLabeled is Generate with Zipf-distributed edge labels
// attached — the edge-labelled twin of the named dataset. numEdgeLabels <=
// 0 selects the default alphabet; vertexLabels > 0 additionally attaches
// Zipf vertex labels, so the twin exercises full
// (srcLabel, edgeLabel, dstLabel) statistics.
func GenerateEdgeLabeled(dataset string, scale, numEdgeLabels, vertexLabels int) *Graph {
	return gen.EdgeLabeledByName(dataset, scale, numEdgeLabels, vertexLabels)
}

// Options configures a System. The zero value gives a single-machine,
// single-worker system with the paper's default knobs.
type Options struct {
	Machines int // simulated machines (default 1)
	Workers  int // workers per machine (default 1)

	// BatchRows is the batch size (Section 4.2; paper default 512K).
	BatchRows int
	// QueueRows is the adaptive scheduler's output-queue capacity in rows
	// (Section 5.2). This is the single knob spanning the BFS/DFS spectrum:
	//
	//	-1      unbounded queues — pure BFS (maximum parallelism, memory
	//	        proportional to the largest intermediate result),
	//	 1      one batch in flight per operator — pure DFS (minimum
	//	        memory, Theorem 5.4's bound),
	//	 0      substituted with DefaultQueueRows (1<<20 rows), the
	//	        adaptive middle ground used by the paper's experiments,
	//	 other  an explicit adaptive capacity.
	QueueRows int64
	// JoinBufferRows is the in-memory threshold, in rows, of each PUSH-JOIN
	// buffer (one per join, side and machine): a buffer that reaches it is
	// sorted and spilled to a temporary file as one run. 0 means 1<<20.
	// Result.Metrics.JoinSpillRuns/JoinSpillBytes report what a run spilled.
	JoinBufferRows int
	// Governor enables resource governance: a weighted-priority admission
	// gate over concurrent Exec runs, per-run and global memory budgets,
	// adaptive batch sizing, and load shedding with typed fast-fail
	// (ErrOverloaded / ErrMemoryBudget). Nil — the default — disables
	// governance entirely: every Exec runs immediately and unbudgeted, as
	// before. See GovernorConfig.
	Governor *GovernorConfig
	// Persist tunes the durable store attached by Create and Open (fsync
	// policy, compaction cadence, history retention). Nil
	// uses the durable defaults. NewSystem ignores it — persistence is
	// opted into by constructing the System with Create or Open.
	Persist *PersistConfig
}

// DefaultQueueRows is the adaptive queue capacity substituted when
// Options.QueueRows is 0.
const DefaultQueueRows = 1 << 20

func (o Options) normalise() Options {
	if o.Machines < 1 {
		o.Machines = 1
	}
	if o.Workers < 1 {
		o.Workers = 1
	}
	if o.QueueRows == 0 {
		o.QueueRows = DefaultQueueRows
	}
	return o
}

// snapshot is one immutable version of the data graph: the epoch-stamped
// graph, the statistics (and their fingerprint, which seasons every
// plan-cache key), and — for epochs > 0 — the effective edge delta that
// produced this snapshot plus the previous epoch's graph, which delta-mode
// runs enumerate vanished matches on. A snapshot holds graphs only: how a
// graph is spread over machines is a pure function of Options, decided
// when a run starts (newExec), so nothing is deployed per epoch. Snapshots
// are never mutated after construction: System.Apply swaps in a new one,
// and Sessions stay pinned to the snapshot they opened on.
type snapshot struct {
	g       *Graph
	stats   plan.GraphStats
	statsFP uint64
	card    plan.CardFunc

	inserted *graph.EdgeSet // edges this epoch added (nil at epoch 0)
	deleted  *graph.EdgeSet // edges this epoch removed (nil at epoch 0)
	prev     *Graph         // previous epoch's graph (nil at epoch 0)
}

func (sn *snapshot) epoch() uint64 { return sn.g.Epoch() }

// System is a data graph deployed on a simulated HUGE cluster. All methods
// are safe for concurrent use: per-run mutable state (metrics, adjacency
// caches, join buffers) lives in a per-run execution context, and each
// piece of shared state has one owner with one guard — the current snapshot
// is an atomic pointer, plans and in-flight builds belong to the plan
// cache, standing queries to the subscriptions table, admission to the
// governor. applyMu orders Apply, Save and Close and is the outermost lock:
// the others are taken under it, and none of them inside another.
//
// The graph is versioned: Apply merges a Delta into a new snapshot and
// atomically makes it current. Runs started before an Apply finish on the
// snapshot they started on, Sessions stay pinned to the snapshot they were
// opened (or last Refreshed) on, and the plan cache keys on the snapshot's
// statistics fingerprint — which includes the epoch — so a plan optimised
// for one version is never served for another.
type System struct {
	snap atomic.Pointer[snapshot] // current version, swapped by Apply

	applyMu sync.Mutex // serialises Apply, Save and Close

	opts  Options
	plans *plan.Cache

	// Standing queries (subscribe.go) and their lifetime maintenance
	// counters.
	subs  subscriptions
	maint metrics.Maintenance

	// gov is the resource governor (admission, budgets, shedding); nil
	// when Options.Governor is nil — the ungoverned historical behaviour.
	gov *governor

	// st is the durable store backing this System (persist.go); nil for a
	// purely in-memory System (NewSystem). When set, Apply writes through
	// the store's epoch log before installing the new snapshot. closed
	// makes Close idempotent; compactErr is the failure of the last
	// automatic compaction, nil once one succeeds (both guarded by applyMu).
	st         *store.Store
	closed     bool
	compactErr error
}

// snapshot returns the current version; runs capture it once and use it
// throughout, so an Apply mid-run is invisible to them.
func (s *System) snapshot() *snapshot { return s.snap.Load() }

// newSnapshot wraps one graph version with its statistics and the
// estimator over them. It is the only place a snapshot is assembled
// (initial, recovered, AsOf and post-Apply alike); Apply adds the delta
// fields to what it returns.
func newSnapshot(g *Graph, stats plan.GraphStats) *snapshot {
	return &snapshot{
		g:       g,
		stats:   stats,
		statsFP: stats.Fingerprint(),
		card:    plan.MomentEstimator(stats),
	}
}

// newSystem is the one System constructor behind NewSystem, Create and
// Open: g with the given statistics, the plan cache, the governor and (for
// a durable System) the store.
func newSystem(g *Graph, stats plan.GraphStats, opts Options, st *store.Store) *System {
	opts = opts.normalise()
	s := &System{
		opts:  opts,
		plans: plan.NewCache(plan.DefaultCacheCapacity),
		subs:  subscriptions{groups: map[string]*subGroup{}},
		st:    st,
	}
	s.snap.Store(newSnapshot(g, stats))
	if opts.Governor != nil {
		s.gov = newGovernor(*opts.Governor)
	}
	return s
}

// NewSystem serves g on the configured machines and workers. Apart from
// the statistics it computes, construction costs nothing proportional to
// the graph: vertices are assigned to machines by a hash, on demand.
func NewSystem(g *Graph, opts Options) *System {
	return newSystem(g, plan.ComputeStats(g), opts, nil)
}

// Graph returns the current snapshot's data graph.
func (s *System) Graph() *Graph { return s.snapshot().g }

// Epoch returns the current snapshot version: 0 before any Apply,
// incremented by each one.
func (s *System) Epoch() uint64 { return s.snapshot().epoch() }

// Apply merges a batch of graph updates into a new snapshot and makes it
// current, returning the new epoch. The previous snapshot is untouched:
// queries already running (and Sessions pinned to it) finish on the
// version they started with, while new runs observe the update. Statistics
// are maintained incrementally from the touched vertices, and every plan
// optimised against the superseded statistics is evicted from the plan
// cache — its keys could never be served again (the epoch participates in
// the statistics fingerprint), so keeping them would only crowd out live
// plans. Applies are serialised. Nothing is repartitioned or redeployed:
// what a call still pays beyond work proportional to the delta is the
// graph layer's copy of its adjacency overlay and whatever the standing
// queries' maintenance runs enumerate. A maintenance pass starts little
// besides: each pattern group builds one execution context per delta side
// and runs its per-pinned-edge flows on it in turn; with one machine a
// stage runs on the group's own goroutine, and a batch of fewer than 8
// rows per chunk fans out to no worker (engine.Run, forChunks).
//
// Edge relabels (Delta.Relabel) are delete-and-reinsert churn at the graph
// layer: the edge lands in both pinned sets, so delta-mode runs count
// matches lost under the old edge label and gained under the new one, and
// the differential identity holds for edge-label-constrained queries with
// no extra handling here. Vertex relabels need the incident-edge
// augmentation below.
//
// On a persistent System (Create/Open) the delta is appended to the epoch
// log — and, unless PersistConfig.NoSync, fsynced — BEFORE the snapshot
// installs, so every epoch a client ever observed is durable. A log write
// that fails panics: a durable System whose log cannot keep up with its
// memory state would silently break recovery's contract, and Apply has no
// error channel (an in-memory fallback would be worse than stopping).
func (s *System) Apply(d Delta) uint64 {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	cur := s.snapshot()
	ng, applied := graph.Apply(cur.g, d)
	if s.st != nil {
		if err := s.st.Append(ng.Epoch(), d); err != nil {
			panic(fmt.Sprintf("huge: epoch log write failed, durability lost: %v", err))
		}
	}
	inserted, deleted := applied.Inserted, applied.Deleted
	if len(applied.Relabeled) > 0 {
		// A label change alters which embeddings match a label-constrained
		// query without touching any edge, so the pinned sets are augmented
		// with every edge incident to a relabelled vertex ("label churn").
		// Every match of a connected query that contains such a vertex uses
		// at least one incident edge, so matches gained by relabelling are
		// counted on the inserted side, matches lost on the deleted side,
		// and matches away from the churn cancel — the differential
		// identity stays exact under label updates too.
		insE := append([][2]VertexID(nil), inserted.Edges()...)
		delE := append([][2]VertexID(nil), deleted.Edges()...)
		for _, v := range applied.Relabeled {
			for _, w := range ng.Neighbors(v) {
				insE = append(insE, [2]VertexID{v, w})
			}
			if int(v) < cur.g.NumVertices() {
				for _, w := range cur.g.Neighbors(v) {
					delE = append(delE, [2]VertexID{v, w})
				}
			}
		}
		inserted, deleted = graph.NewEdgeSet(insE), graph.NewEdgeSet(delE)
	}
	next := newSnapshot(ng, plan.UpdateStats(cur.stats, cur.g, ng, applied))
	next.inserted, next.deleted, next.prev = inserted, deleted, cur.g
	s.snap.Store(next)
	s.plans.InvalidateGraph(cur.statsFP)
	// Serve standing queries before returning: one shared delta run per
	// live pattern group on the snapshot just installed (subscribe.go).
	// Running under applyMu keeps per-epoch event order per subscriber.
	s.maintainSubscriptions(next)
	if s.st != nil && s.st.ShouldCompact() {
		// The log outgrew its snapshot: persist the state just installed so
		// recovery replays (almost) nothing. Failure is not fatal — the log
		// still covers everything — so compaction just retries next Apply;
		// it is logged, and remembered for Save and Close to report.
		if s.compactErr = s.st.Compact(s.snapshotData(next)); s.compactErr != nil {
			slog.Warn("huge: automatic compaction failed", "epoch", ng.Epoch(), "err", s.compactErr)
		}
	}
	return ng.Epoch()
}

// buildPlan runs the (uncached) planner for one named family — "optimal"
// or "wco", the two the System itself runs — or returns nil for any other
// name. Both leave priced by the deployment's cost model (for "optimal"
// that is the optimiser's own figure).
func (s *System) buildPlan(sn *snapshot, q *Query, name string) *Plan {
	cfg := plan.Config{
		NumMachines: s.opts.Machines,
		GraphEdges:  float64(sn.g.NumEdges()),
		Card:        sn.card,
	}
	switch name {
	case "optimal":
		return plan.Optimize(q, cfg)
	case "wco":
		p := plan.HugeWcoPlanStats(q, sn.stats)
		p.Cost = plan.CostOf(p, cfg)
		return p
	}
	return nil
}

// servesQuery is the one rule for when plan p may run for query q: the
// same pattern (equal fingerprints, hence the same count) and, when the
// run delivers matches or groups (numbered), q's exact vertex numbering —
// matches and group keys are indexed by query vertex, so a relabelled
// twin's plan would report them in the twin's numbering.
func servesQuery(p *Plan, q *Query, numbered bool) bool {
	return p.Q.Fingerprint() == q.Fingerprint() && (!numbered || p.Q.SameNumbering(q))
}

// planFor returns the plan for (q, name) against one snapshot through the
// plan cache (plan.Cache.GetOrBuild); cached reports whether it was a hit.
// A cached entry that does not serve q (servesQuery) is rebuilt from q,
// which serves every caller of the key. An unknown family yields nil.
func (s *System) planFor(sn *snapshot, q *Query, name string, numbered bool) (p *Plan, cached bool) {
	return s.plans.GetOrBuild(
		plan.Key{QueryFP: q.Fingerprint(), Family: name, Machines: s.opts.Machines, StatsFP: sn.statsFP},
		func(p *Plan) bool { return servesQuery(p, q, numbered) },
		func() *Plan { return s.buildPlan(sn, q, name) })
}

// Plan computes the optimal execution plan for q (Algorithm 1) in q's own
// vertex numbering, memoised in the plan cache. The returned plan is
// shared with the cache and with every other caller of the same pattern —
// treat it as immutable.
func (s *System) Plan(q *Query) *Plan {
	p, _ := s.planFor(s.snapshot(), q, "optimal", true)
	return p
}

// PlanFor returns the plan of one family the System runs, in q's own
// vertex numbering: "optimal" (as Plan) or "wco" (HUGE−WCO, the
// barrier-free plan Limit and GroupBy runs take). Any other name returns
// nil, and nothing is built or cached; the paper's baseline families
// (Remark 3.2) are built by the experiment rig. Like Plan, results are
// memoised in the plan cache and shared — treat the returned plan as
// immutable. Passing the result to WithPlan for q is always accepted.
func (s *System) PlanFor(q *Query, name string) *Plan {
	p, _ := s.planFor(s.snapshot(), q, name, true)
	return p
}

// PlanCacheStats reports the plan cache's cumulative hits and misses and
// its current size.
func (s *System) PlanCacheStats() (hits, misses uint64, size int) { return s.plans.Stats() }

// Result reports one query execution.
type Result struct {
	Count   uint64
	Elapsed time.Duration
	Metrics Summary
	// Plan is the executed plan. It may be shared with the plan cache and
	// other runs of the same pattern — treat it as immutable. Nil for
	// delta-mode runs, which use the linear difference rewriting instead
	// of an optimised plan.
	Plan *Plan
	// PlanCached reports whether the run reused a memoised plan instead of
	// invoking the optimiser.
	PlanCached bool
	// Delta fields, set only for Query.Delta() runs. Delta is the signed
	// change in the match count this epoch introduced: DeltaNew matches
	// containing an inserted edge (Count echoes it) minus DeltaDead old
	// matches that contained a deleted edge. full(t) + Delta == full(t+1).
	Delta     int64
	DeltaNew  uint64
	DeltaDead uint64
	// Groups is the per-group match table of a GroupBy run: the full table
	// in ascending key order, or the TopGroups(k) selection in descending
	// count order. Nil without GroupBy. On a delta view each entry carries
	// the group's created (Count) and vanished (Dead) matches, so
	// full(t)[g] + Count − Dead == full(t+1)[g] per group.
	Groups []GroupCount
	// Hist is the Histogram(buckets) log2 histogram over per-group counts:
	// Hist[i] tallies groups whose count is in [2^i, 2^(i+1)), the last
	// bucket absorbing overflow. Nil without Histogram.
	Hist []uint64
}

// run is what one execution carries through the run path besides its
// snapshot and plan. It is passed by value: four words, no allocation.
type run struct {
	fn     func([]VertexID) // match consumer, indexed by query vertex (nil = count only)
	budget *engine.Budget   // Limit(k) match budget (nil = unlimited)
	gr     *groupRun        // GroupBy state (nil = plain run)
	h      *govRun          // per-run memory budget + adaptive batch sizing (nil = none)
}

// engineConfig assembles the engine configuration of one dataflow of a
// run: the system's options, the run's match consumer re-indexed for df,
// its top-k budget and its governance handle.
func (s *System) engineConfig(df *dataflow.Dataflow, r run) engine.Config {
	cfg := engine.Config{
		BatchRows:      s.opts.BatchRows,
		QueueRows:      s.opts.QueueRows,
		JoinBufferRows: s.opts.JoinBufferRows,
		OnResult:       reindexed(df, r.fn),
		Compress:       true,
		Budget:         r.budget,
	}
	if r.h != nil {
		cfg.MemBudgetRows = r.h.memRows
		// Governed throughput runs size their batches adaptively; a Limit(k)
		// run already forces the small fixed DFS batch below, which is the
		// right size for it unconditionally.
		cfg.AdaptiveBatch = r.h.gov != nil && r.budget == nil
	}
	if r.budget != nil {
		// A bounded run schedules as pure DFS (one batch in flight per
		// operator): wide queues would let every operator bulk-produce a
		// full level before the sink claims its first budget slot, doing
		// exactly the work Limit(k) exists to avoid. DFS is the quickest
		// path to the first match and Theorem 5.4's minimal memory; the
		// budget then halts the pipeline within a batch boundary of the
		// k-th match. Batches shrink with it — DFS's memory and overshoot
		// bound is one batch's expansion per operator, so a bulk-throughput
		// batch size would reintroduce exactly the wasted work the budget
		// exists to avoid (a single hub-heavy 4K-row batch can expand into
		// hundreds of thousands of tuples).
		cfg.QueueRows = 1
		if cfg.BatchRows <= 0 || cfg.BatchRows > boundedBatchRows {
			cfg.BatchRows = boundedBatchRows
		}
	}
	return cfg
}

// boundedBatchRows is the batch size of budget-bounded (Limit) runs.
const boundedBatchRows = 64

// reindexed wraps fn to re-index engine rows (slot order) by query vertex.
func reindexed(df *dataflow.Dataflow, fn func([]VertexID)) func([]VertexID) {
	if fn == nil {
		return nil
	}
	layout := df.Stages[len(df.Stages)-1].OutputLayout()
	return func(row []VertexID) {
		match := make([]VertexID, len(row))
		for slot, qv := range layout {
			match[qv] = row[slot]
		}
		fn(match)
	}
}

// newExec builds the execution context of one engine run — or of one delta
// side's flows, run in turn — on g: the configured machines and workers,
// fresh metrics, cold adjacency caches.
func (s *System) newExec(g *Graph) *cluster.Exec {
	return cluster.New(g, cluster.Config{NumMachines: s.opts.Machines, Workers: s.opts.Workers}).NewExec()
}

func (s *System) runPlan(ctx context.Context, sn *snapshot, p *Plan, r run) (Result, error) {
	// A run that delivers no match and groups none only counts, so it may
	// break the pattern's symmetry where its plan counts fastest; matches
	// and group keys are defined on q's own orders.
	translate := plan.Translate
	if r.fn == nil && r.gr == nil {
		translate = plan.TranslateCount
	}
	df, err := translate(p)
	if err != nil {
		return Result{}, err
	}
	cfg := s.engineConfig(df, r)
	gr := r.gr
	if gr != nil {
		// Translate built df fresh for this run, so marking its sink for
		// grouped counting never leaks into the shared (cached) plan.
		if err := plan.AttachGroup(df, gr.spec); err != nil {
			return Result{}, err
		}
		cfg.Groups = gr.agg
	}
	// Per-run execution context: metrics and adjacency caches private to
	// this query, so concurrent runs never observe each other. A governed
	// run additionally feeds the system-wide live-tuple gauge.
	ex := s.newExec(sn.g)
	r.h.attach(ex.Metrics)
	start := time.Now()
	count, err := engine.Run(ctx, ex, df, cfg)
	if err != nil {
		return Result{}, err
	}
	res := Result{
		Count:   count,
		Elapsed: time.Since(start),
		Metrics: ex.Metrics.Snapshot(),
		Plan:    p,
	}
	if gr != nil {
		res.Groups, res.Hist = gr.finalize()
	}
	return res, nil
}

// runDelta executes a Query.Delta() view on one snapshot: the difference
// rewriting of plan.TranslateDelta pins each query edge in turn on the
// snapshot's inserted set (counting the matches this epoch created) and,
// against the previous epoch's graph, on the deleted set (counting the
// matches it destroyed). The signed difference maintains the full count:
// full(t) + Delta == full(t+1). At epoch 0 there is no delta and the
// result is zero. Plans are not cached — the rewriting is linear in the
// query, and the sets change every epoch anyway.
//
// A top-k budget spans the per-pinned-edge flows of the NEW side: each
// flow claims from the same budget and the loop stops once it is
// exhausted, so the stream carries exactly min(k, totalNew) new matches.
// The vanished-match side is skipped under a limit — it enumerates the
// previous snapshot in full, which is precisely the work a top-k caller
// asked to avoid — so DeltaDead and Delta stay zero then.
func (s *System) runDelta(ctx context.Context, sn *snapshot, q *Query, r run) (Result, error) {
	flows, err := plan.TranslateDelta(q)
	if err != nil {
		return Result{}, err
	}
	if gr := r.gr; gr != nil {
		// The flows were translated for this run only, so the group spec can
		// ride on their sinks; both delta sides share the specs, differing
		// only in which aggregate the engine config points at.
		for _, df := range flows {
			if err := plan.AttachGroup(df, gr.spec); err != nil {
				return Result{}, err
			}
		}
	}
	return s.runDeltaFlows(ctx, sn, flows, r, nil)
}

// runDeltaFlows is the delta-run core shared by runDelta and the
// standing-query maintenance path: it executes already-translated delta
// flows against one snapshot's inserted/deleted sets. r.fn receives every
// created match, deadFn (when the dead side runs at all — see runDelta on
// budgets) every destroyed one; either may be nil to count only.
// Separating translation from execution lets subscription groups cache
// their flows once and pay only the enumeration on every Apply.
func (s *System) runDeltaFlows(ctx context.Context, sn *snapshot, flows []*dataflow.Dataflow, r run, deadFn func([]VertexID)) (Result, error) {
	start := time.Now()
	var res Result
	budget, gr := r.budget, r.gr
	runSide := func(g *Graph, set *graph.EdgeSet, side run, agg *engine.GroupAgg) (uint64, error) {
		if g == nil || set.Len() == 0 {
			return 0, nil
		}
		// Every flow of a side runs on one execution context, one after
		// another: a flow pins a handful of edges, so building a context —
		// cold caches, fresh metrics — per flow would cost more than most
		// flows do, and the flows of one side read the same graph.
		ex := s.newExec(g)
		side.h.attach(ex.Metrics)
		var total uint64
		for _, df := range flows {
			if budget != nil && budget.Exhausted() {
				break
			}
			cfg := s.engineConfig(df, side)
			cfg.DeltaEdges = set
			cfg.Groups = agg
			n, err := engine.Run(ctx, ex, df, cfg)
			if err != nil {
				return 0, err
			}
			total += n
		}
		res.Metrics = res.Metrics.Add(ex.Metrics.Snapshot())
		return total, nil
	}
	var newAgg, deadAgg *engine.GroupAgg
	if gr != nil {
		// The per-pinned-edge flows of each side merge additively into one
		// aggregate per side — the dead side reads the previous snapshot's
		// graph, so its keys reflect labels as of t.
		newAgg, deadAgg = gr.agg, gr.dead
	}
	newCount, err := runSide(sn.g, sn.inserted, r, newAgg)
	if err != nil {
		return Result{}, err
	}
	res.Count = newCount
	res.DeltaNew = newCount
	if budget == nil {
		dead := r
		dead.fn = deadFn
		deadCount, err := runSide(sn.prev, sn.deleted, dead, deadAgg)
		if err != nil {
			return Result{}, err
		}
		res.DeltaDead = deadCount
		res.Delta = int64(newCount) - int64(deadCount)
	}
	if gr != nil {
		res.Groups, res.Hist = gr.finalize()
	}
	res.Elapsed = time.Since(start)
	return res, nil
}
