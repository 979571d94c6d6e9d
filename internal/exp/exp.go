// Package exp reproduces every table and figure of the paper's evaluation
// (Section 7) on laptop-scale stand-in datasets. Each experiment returns a
// Table whose rows mirror what the paper reports; cmd/hugebench prints
// them, the root-level benchmarks time them, and EXPERIMENTS.md records the
// paper-vs-measured comparison.
package exp

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
)

// Table is one experiment's printable result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s ==\n", t.Title)
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
		}
		sb.WriteString("\n")
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	return sb.String()
}

// Env configures an experiment run.
type Env struct {
	Scale   int  // dataset size multiplier (1 = quick)
	Workers int  // workers per machine
	K       int  // machines (paper: 10 local / 16 AWS)
	Latency bool // inject the modelled network latency

	graphs map[string]*graph.Graph
}

// DefaultEnv is the quick configuration used by the CLI harness.
func DefaultEnv() *Env { return &Env{Scale: 1, Workers: 2, K: 4} }

// TinyEnv pre-loads miniature datasets (hundreds of vertices) so the whole
// experiment suite runs in seconds — used by unit tests and benchmarks.
func TinyEnv() *Env {
	e := &Env{Scale: 1, Workers: 2, K: 3}
	e.graphs = map[string]*graph.Graph{
		"GO": gen.PowerLaw(400, 3, 42),
		"LJ": gen.PowerLaw(500, 3, 43),
		"OR": gen.PowerLaw(450, 4, 44),
		"UK": gen.Web(600, 3, 0.5, 45),
		"EU": gen.Road(900, 0.02, 46),
		"FS": gen.PowerLaw(700, 3, 47),
		"CW": gen.Web(800, 5, 0.6, 48),
	}
	return e
}

// Dataset returns (and caches) a reduced stand-in dataset. Sizes keep the
// original degree profiles (skew ordering GO < LJ < OR ... and hub-heavy
// UK/CW) while keeping result counts laptop-sized.
func (e *Env) Dataset(name string) *graph.Graph {
	if e.graphs == nil {
		e.graphs = map[string]*graph.Graph{}
	}
	if g, ok := e.graphs[name]; ok {
		return g
	}
	s := e.Scale
	if s < 1 {
		s = 1
	}
	var g *graph.Graph
	switch name {
	case "GO":
		g = gen.PowerLaw(2500*s, 3, 42)
	case "LJ":
		g = gen.PowerLaw(4000*s, 4, 43)
	case "OR":
		g = gen.PowerLaw(3000*s, 6, 44)
	case "UK":
		g = gen.Web(5000*s, 4, 0.5, 45)
	case "EU":
		g = gen.Road(8000*s, 0.02, 46)
	case "FS":
		g = gen.PowerLaw(6000*s, 5, 47)
	case "CW":
		g = gen.Web(10000*s, 5, 0.6, 48)
	default:
		panic("exp: unknown dataset " + name)
	}
	e.graphs[name] = g
	return g
}

func (e *Env) latency() cluster.LatencyModel {
	if !e.Latency {
		return cluster.LatencyModel{}
	}
	return cluster.LatencyModel{PerMessage: 30 * time.Microsecond, PerKB: 800 * time.Nanosecond}
}

// RunResult is one engine execution's measurements.
type RunResult struct {
	Name    string
	Count   uint64
	Elapsed time.Duration
	Summary metrics.Summary
	Err     error
}

// HugeOpts tweak a HUGE run within an experiment.
type HugeOpts struct {
	// PlanName is "" or "optimal", "wco" (the families huge.System runs),
	// or one of the paper's baseline families FamilyPlan builds.
	PlanName    string
	BatchRows   int
	QueueRows   int64
	CacheKind   cache.Kind
	CacheBytes  uint64
	LoadBalance engine.LoadBalance
	Machines    int // 0 = Env.K
	// Compress counts with the compression of Qiao et al. [63] — a tail
	// or a separator counted in closed form, the final extension counted,
	// not materialised — as a counting System.Exec does, under the
	// symmetry break it counts with (plan.TranslateCount). Off, HUGE
	// enumerates every match like the materialising baselines it is
	// compared with.
	Compress bool
}

// FamilyPlan builds one of the paper's baseline logical plans for q on g —
// "seed", "rads", "benu", "emptyheaded" or "graphflow" — reconfigured for
// HUGE (Remark 3.2) in q's own vertex numbering. It is priced by the cost
// model huge.System prices its own plans with on a machines-machine
// deployment, so the families' Costs compare with the optimiser's.
func FamilyPlan(g *graph.Graph, q *query.Query, family string, machines int) (*plan.Plan, error) {
	stats := plan.ComputeStats(g)
	card := plan.MomentEstimator(stats)
	var p *plan.Plan
	switch family {
	case "seed":
		p = plan.SEEDPlan(q, card)
	case "rads":
		p = plan.ReconfigurePhysical(plan.RADSPlan(q))
	case "benu":
		p = plan.ReconfigurePhysical(plan.BENUPlan(q))
	case "emptyheaded":
		p = plan.ReconfigurePhysical(plan.EmptyHeadedPlan(q, card))
	case "graphflow":
		p = plan.ReconfigurePhysical(plan.GraphFlowPlan(q, stats))
	default:
		return nil, fmt.Errorf("exp: unknown plan family %q", family)
	}
	p.Cost = plan.CostOf(p, plan.Config{
		NumMachines: max(machines, 1),
		GraphEdges:  float64(g.NumEdges()),
		Card:        card,
	})
	return p, nil
}

// RunHUGE executes q on g with the named family's plan — huge.System's for
// "optimal" and "wco", FamilyPlan's for the baselines' — on a cluster
// deployed with the experiment's ablation settings (cache variant and
// capacity, load-balancing strategy, modelled latency), which only this
// rig flips. Compression is off unless o.Compress asks for it, to keep
// the measurements comparable with the materialising baselines.
func (e *Env) RunHUGE(g *graph.Graph, q *query.Query, o HugeOpts) RunResult {
	k := o.Machines
	if k == 0 {
		k = e.K
	}
	planName := o.PlanName
	if planName == "" {
		planName = "optimal"
	}
	name := "HUGE"
	if planName != "optimal" {
		name = "HUGE-" + planName
	}
	queue := o.QueueRows
	if queue == 0 {
		queue = 1 << 16
	}
	var p *plan.Plan
	var err error
	switch planName {
	case "optimal", "wco":
		p = huge.NewSystem(g, huge.Options{Machines: k, Workers: e.Workers}).PlanFor(q, planName)
	default:
		if p, err = FamilyPlan(g, q, planName, k); err != nil {
			return RunResult{Name: o.PlanName, Err: err}
		}
	}
	translate := plan.Translate
	if o.Compress {
		translate = plan.TranslateCount
	}
	df, err := translate(p)
	if err != nil {
		return RunResult{Name: name, Err: err}
	}
	ex := cluster.New(g, cluster.Config{
		NumMachines: k,
		Workers:     e.Workers,
		CacheKind:   o.CacheKind,
		CacheBytes:  o.CacheBytes,
		Latency:     e.latency(),
	}).NewExec()
	defer ex.Close()
	start := time.Now()
	count, err := engine.Run(context.Background(), ex, df, engine.Config{
		BatchRows:   o.BatchRows,
		QueueRows:   queue,
		LoadBalance: o.LoadBalance,
		Compress:    o.Compress,
	})
	if err != nil {
		return RunResult{Name: name, Err: err}
	}
	return RunResult{Name: name, Count: count, Elapsed: time.Since(start), Summary: ex.Metrics.Snapshot()}
}

// RunBaseline executes one of the paper's competitor systems.
func (e *Env) RunBaseline(name string, g *graph.Graph, q *query.Query, memLimit int64) RunResult {
	m := &metrics.Metrics{}
	kv := baseline.NewSimKV(g, m)
	if e.Latency {
		// External-store overhead (BENU's Cassandra pain): much larger
		// per-request cost than the in-engine RPC layer, but small enough
		// that the reduced-scale experiments finish promptly.
		kv.Cost = baseline.CommCost{PerMessage: 25 * time.Microsecond, PerKB: 2 * time.Microsecond}
	}
	var comm baseline.CommCost
	if e.Latency {
		lat := e.latency()
		comm = baseline.CommCost{PerMessage: lat.PerMessage, PerKB: lat.PerKB}
	}
	start := time.Now()
	var count uint64
	var err error
	switch name {
	case "BENU":
		count = baseline.RunBENU(g, q, baseline.BENUConfig{
			NumMachines: e.K, Workers: e.Workers, CacheBytes: g.SizeBytes() / 10, Store: kv,
		}, m)
	case "RADS":
		count, err = baseline.RunRADS(g, q, baseline.RADSConfig{
			NumMachines: e.K, RegionGroup: g.NumVertices()/8 + 1,
			CacheBytes: g.SizeBytes() / 4, MemLimitTuples: memLimit, Store: kv,
		}, m)
	case "SEED":
		count, err = baseline.RunSEED(g, q, baseline.SEEDConfig{
			NumMachines: e.K, MemLimitTuples: memLimit,
			Card: plan.MomentEstimator(plan.ComputeStats(g)),
			Comm: comm,
		}, m)
	case "BiGJoin":
		count, err = baseline.RunBiGJoin(g, q, baseline.BiGJoinConfig{
			NumMachines: e.K, MemLimitTuples: memLimit, Comm: comm,
		}, m)
	default:
		err = fmt.Errorf("exp: unknown baseline %q", name)
	}
	return RunResult{Name: name, Count: count, Elapsed: time.Since(start), Summary: m.Snapshot(), Err: err}
}

func fmtDur(d time.Duration) string { return fmt.Sprintf("%.3fs", d.Seconds()) }

func fmtMB(b uint64) string { return fmt.Sprintf("%.2fMB", float64(b)/(1<<20)) }

func (r RunResult) cells() []string {
	if r.Err != nil {
		if r.Err == baseline.ErrOOM {
			return []string{r.Name, "OOM", "-", "-", "-", "-"}
		}
		return []string{r.Name, "ERR:" + r.Err.Error(), "-", "-", "-", "-"}
	}
	return []string{
		r.Name,
		fmtDur(r.Elapsed),
		fmtDur(r.Summary.CommTime),
		fmtMB(r.Summary.BytesPushed + r.Summary.BytesPulled + r.Summary.BytesStolen),
		fmt.Sprintf("%d", r.Summary.PeakTuples),
		fmt.Sprintf("%d", r.Count),
	}
}

var resultHeader = []string{"system", "T", "T_C(blocked)", "C", "M(peak tuples)", "results"}
