package repro

// One benchmark per table/figure of the paper's evaluation (Section 7).
// Each benchmark drives the same experiment harness that cmd/hugebench
// prints, at miniature scale so `go test -bench=.` finishes in minutes;
// run `hugebench -exp all -scale 1` for the full-size reproduction.
// b.ReportMetric exposes the paper's non-time axes (bytes moved, peak
// tuples, hit rates) alongside ns/op.

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/exp"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/query"
)

func tinyEnv() *exp.Env { return exp.TinyEnv() }

// BenchmarkTable1_SquareLJ: Table 1 — q1 on LJ across all five systems.
func BenchmarkTable1_SquareLJ(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("LJ")
	q := query.Q1()
	b.Run("SEED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := e.RunBaseline("SEED", g, q, 0)
			reportRun(b, r)
		}
	})
	b.Run("BiGJoin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := e.RunBaseline("BiGJoin", g, q, 0)
			reportRun(b, r)
		}
	})
	b.Run("BENU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := e.RunBaseline("BENU", g, q, 0)
			reportRun(b, r)
		}
	})
	b.Run("RADS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := e.RunBaseline("RADS", g, q, 0)
			reportRun(b, r)
		}
	})
	b.Run("HUGE", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			r := e.RunHUGE(g, q, exp.HugeOpts{})
			reportRun(b, r)
		}
	})
}

func reportRun(b *testing.B, r exp.RunResult) {
	b.Helper()
	if r.Err != nil {
		b.Fatalf("%s: %v", r.Name, r.Err)
	}
	b.ReportMetric(float64(r.Summary.BytesPulled+r.Summary.BytesPushed)/float64(b.N), "commBytes/op")
	b.ReportMetric(float64(r.Summary.PeakTuples), "peakTuples")
	b.ReportMetric(float64(r.Count), "results")
}

// BenchmarkFig5_SpeedupExisting: Exp-1 — baseline logical plans plugged
// into HUGE.
func BenchmarkFig5_SpeedupExisting(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("LJ")
	for _, pn := range []string{"benu", "rads", "seed", "wco"} {
		b.Run("HUGE-"+pn, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, e.RunHUGE(g, query.Q1(), exp.HugeOpts{PlanName: pn}))
			}
		})
	}
}

// BenchmarkFig6_AllRound: Exp-2 — HUGE's optimal plan per dataset (the
// baselines' cells are covered by Table 1 and the baseline package).
func BenchmarkFig6_AllRound(b *testing.B) {
	e := tinyEnv()
	for _, ds := range []string{"EU", "LJ", "OR", "UK", "FS"} {
		g := e.Dataset(ds)
		for _, qn := range []string{"q1", "q2", "q3"} {
			b.Run(ds+"/"+qn, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reportRun(b, e.RunHUGE(g, query.ByName(qn), exp.HugeOpts{}))
				}
			})
		}
	}
}

// BenchmarkTable4_WebScale: Exp-3 — throughput on the web-like CW stand-in.
func BenchmarkTable4_WebScale(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("CW")
	for _, qn := range []string{"q1", "q2", "q3"} {
		b.Run(qn, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.RunHUGE(g, query.ByName(qn), exp.HugeOpts{})
				reportRun(b, r)
				b.ReportMetric(float64(r.Count)/r.Elapsed.Seconds(), "results/s")
			}
		})
	}
}

// BenchmarkFig7_BatchSize: Exp-4 — RPC aggregation vs batch size.
func BenchmarkFig7_BatchSize(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	for _, batch := range []int{128, 512, 2048} {
		b.Run(byteSize(batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.RunHUGE(g, query.Q1(), exp.HugeOpts{BatchRows: batch, CacheBytes: 1})
				reportRun(b, r)
				b.ReportMetric(float64(r.Summary.RPCCalls), "rpcs")
			}
		})
	}
}

func byteSize(n int) string {
	switch {
	case n >= 1024:
		return string(rune('0'+n/1024)) + "Krows"
	default:
		return string(rune('0'+n/100)) + "00rows"
	}
}

// BenchmarkFig8_CacheCapacity: Exp-5 — hit rate and pulled volume vs cache
// size.
func BenchmarkFig8_CacheCapacity(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	for _, frac := range []struct {
		name string
		f    float64
	}{{"1pct", 0.01}, {"10pct", 0.10}, {"30pct", 0.30}, {"100pct", 1.0}} {
		b.Run(frac.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				capBytes := uint64(frac.f * float64(g.SizeBytes()))
				if capBytes == 0 {
					capBytes = 1
				}
				r := e.RunHUGE(g, query.Q1(), exp.HugeOpts{CacheBytes: capBytes})
				reportRun(b, r)
				hits := float64(r.Summary.CacheHits)
				total := hits + float64(r.Summary.CacheMisses)
				if total > 0 {
					b.ReportMetric(100*hits/total, "hitRate%")
				}
			}
		})
	}
}

// BenchmarkTable5_CacheDesign: Exp-6 — LRBU vs its ablations.
func BenchmarkTable5_CacheDesign(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	for _, kind := range []cache.Kind{cache.LRBU, cache.LRBUCopy, cache.LRBULock, cache.LRUInf, cache.CncrLRU} {
		b.Run(kind.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, e.RunHUGE(g, query.Q1(), exp.HugeOpts{
					CacheKind: kind, CacheBytes: g.SizeBytes() / 10,
				}))
			}
		})
	}
}

// BenchmarkFig9_Scheduling: Exp-7 — DFS / adaptive / BFS queue capacities.
func BenchmarkFig9_Scheduling(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	for _, cfgRow := range []struct {
		name  string
		queue int64
	}{{"DFS", 1}, {"adaptive4K", 4096}, {"adaptive64K", 65536}, {"BFS", -1}} {
		b.Run(cfgRow.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.RunHUGE(g, query.Q6(), exp.HugeOpts{QueueRows: cfgRow.queue, BatchRows: 256})
				reportRun(b, r)
			}
		})
	}
}

// BenchmarkFig10_WorkStealing: Exp-8 — stealing vs static vs region-group.
func BenchmarkFig10_WorkStealing(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	for _, s := range []struct {
		name string
		lb   engine.LoadBalance
	}{{"HUGE", engine.LBSteal}, {"NOSTL", engine.LBStatic}, {"RGP", engine.LBPivot}} {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				r := e.RunHUGE(g, query.Q2(), exp.HugeOpts{LoadBalance: s.lb, BatchRows: 256})
				reportRun(b, r)
				b.ReportMetric(float64(r.Summary.StealsIntra+r.Summary.StealsInter), "steals")
			}
		})
	}
}

// BenchmarkTable6_HybridPlans: Exp-9 — plan-space comparison on q7/q8.
func BenchmarkTable6_HybridPlans(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("GO")
	for _, qn := range []string{"q7", "q8"} {
		for _, pn := range []string{"wco", "emptyheaded", "graphflow", "optimal"} {
			b.Run(qn+"/"+pn, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					reportRun(b, e.RunHUGE(g, query.ByName(qn), exp.HugeOpts{PlanName: pn}))
				}
			})
		}
	}
}

// BenchmarkFig11_Scalability: Exp-10 — machine-count sweep, HUGE and
// BiGJoin.
func BenchmarkFig11_Scalability(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("FS")
	for _, k := range []int{1, 2, 4, 8} {
		b.Run("HUGE/k="+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				reportRun(b, e.RunHUGE(g, query.Q2(), exp.HugeOpts{Machines: k}))
			}
		})
	}
	for _, k := range []int{1, 2, 4, 8} {
		b.Run("BiGJoin/k="+string(rune('0'+k)), func(b *testing.B) {
			m := &metrics.Metrics{}
			for i := 0; i < b.N; i++ {
				if _, err := baseline.RunBiGJoin(g, query.Q2(), baseline.BiGJoinConfig{NumMachines: k}, m); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_Compression: the generic compression optimisation [63]
// (count the final extension from candidate sets) on vs off — one of the
// design choices DESIGN.md calls out.
func BenchmarkAblation_Compression(b *testing.B) {
	g := gen.PowerLaw(2000, 6, 21)
	q := query.Q1()
	df, err := plan.Translate(plan.HugeWcoPlanStats(q, plan.GraphStats{}))
	if err != nil {
		b.Fatal(err)
	}
	for _, compress := range []bool{true, false} {
		name := "off"
		if compress {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ex := cluster.New(g, cluster.Config{NumMachines: 2, Workers: 2, CacheKind: cache.LRBU}).NewExec()
				if _, err := engine.Run(context.Background(), ex, df, engine.Config{BatchRows: 2048, QueueRows: 1 << 16, Compress: compress}); err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(ex.Metrics.PeakTuples()), "peakTuples")
			}
		})
	}
}

// BenchmarkAblation_Estimators: plan quality under the two cardinality
// estimators (degree-moment vs Erdős–Rényi), another DESIGN.md choice.
func BenchmarkAblation_Estimators(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("UK")
	stats := plan.ComputeStats(g)
	ests := map[string]plan.CardFunc{
		"moment": plan.MomentEstimator(stats),
		"er":     plan.ERRandomGraphEstimator(stats),
	}
	for name, card := range ests {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p := plan.Optimize(query.Q8(), plan.Config{NumMachines: 3, GraphEdges: float64(g.NumEdges()), Card: card})
				df, err := plan.Translate(p)
				if err != nil {
					b.Fatal(err)
				}
				ex := cluster.New(g, cluster.Config{NumMachines: 3, Workers: 2, CacheKind: cache.LRBU}).NewExec()
				if _, err := engine.Run(context.Background(), ex, df, engine.Config{BatchRows: 1024, QueueRows: 1 << 16}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMicro_Intersect and friends: micro-benchmarks of the hot kernels
// behind every experiment.
func BenchmarkMicro_GroundTruthTriangles(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("LJ")
	q := query.Triangle()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		baseline.GroundTruthCount(g, q)
	}
}

// BenchmarkLabeledVsUnlabeled: the labelled-matching workload — the same
// triangle pattern unconstrained vs constrained to a selective (~5%) and a
// rare (<1%) Zipf label on the LiveJournal stand-in. Label-constrained runs
// seed scans from the per-label index and filter PULL-EXTEND candidates, so
// peak tuples and pulled bytes shrink with the label's frequency.
func BenchmarkLabeledVsUnlabeled(b *testing.B) {
	g := gen.ZipfLabels(gen.PowerLaw(4000, 4, 43), 16, 1.8, 7)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2, QueueRows: 1 << 16})
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	cases := []struct {
		name string
		q    *huge.Query
	}{
		{"unlabelled", huge.NewQuery("tri", edges)},
		{"head-label", huge.NewLabeledQuery("tri-head", edges, []int{0, 0, 0})},
		{"selective-label", huge.NewLabeledQuery("tri-sel", edges, []int{3, 3, 3})},
		{"rare-label", huge.NewLabeledQuery("tri-rare", edges, []int{9, 9, 9})},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sys.Exec(context.Background(), c.q, huge.CountOnly()).Wait()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Metrics.PeakTuples), "peakTuples")
				b.ReportMetric(float64(res.Metrics.BytesPulled), "pulledBytes")
				b.ReportMetric(float64(res.Count), "results")
			}
		})
	}
}

// BenchmarkEdgeLabeledVsUnlabeled: the edge-labelled matching workload —
// the same triangle pattern unconstrained vs constrained to a selective
// (~5%) Zipf edge label on the LiveJournal stand-in. Edge-constrained runs
// seed scans from the (srcLabel, edgeLabel) triple index and filter
// PULL-EXTEND candidates through the shared label predicate, so peak
// tuples and wall time shrink with the edge label's frequency.
func BenchmarkEdgeLabeledVsUnlabeled(b *testing.B) {
	g := gen.ZipfEdgeLabels(gen.PowerLaw(4000, 4, 43), 16, 1.8, 7)
	stats := plan.ComputeStats(g)
	share := func(l int) float64 { // the constrained label's share of the edges
		n := 0.0
		for k, c := range stats.EdgeTriples {
			if int(k>>16&0xFFFF) == l {
				n += c
			}
		}
		return n / float64(stats.M)
	}
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2, QueueRows: 1 << 16})
	edges := [][2]int{{0, 1}, {1, 2}, {0, 2}}
	cases := []struct {
		name  string
		q     *huge.Query
		label int
	}{
		{"unlabelled", huge.NewQuery("tri", edges), -1},
		{"head-edge", huge.NewEdgeLabeledQuery("tri-ehead", edges, nil, []int{0, 0, 0}), 0},
		{"selective-edge", huge.NewEdgeLabeledQuery("tri-esel", edges, nil, []int{3, 3, 3}), 3},
		{"rare-edge", huge.NewEdgeLabeledQuery("tri-erare", edges, nil, []int{9, 9, 9}), 9},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := sys.Exec(context.Background(), c.q, huge.CountOnly()).Wait()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.Metrics.PeakTuples), "peakTuples")
				b.ReportMetric(float64(res.Metrics.BytesPulled), "pulledBytes")
				b.ReportMetric(float64(res.Count), "results")
				if c.label >= 0 {
					b.ReportMetric(share(c.label), "labelShare")
				}
			}
		})
	}
}

// BenchmarkServe_RepeatedQuery: the serving-layer benchmark behind the
// plan cache — one System answering the same pattern over and over, as a
// production deployment would. The cold run pays the optimiser's dynamic
// program (Algorithm 1); every warm run resolves the query's canonical
// fingerprint in the LRU instead. Cold and warm planning times are
// reported side by side via b.ReportMetric.
func BenchmarkServe_RepeatedQuery(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("LJ")
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2, QueueRows: 1 << 16})
	q := query.Q8() // 9 edges: the catalog's most expensive plan search

	coldStart := time.Now()
	sys.Plan(q)
	coldPlanNs := float64(time.Since(coldStart).Nanoseconds())

	var warmPlanNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		p := sys.Plan(query.Q8()) // fresh instance: full fingerprint + lookup path
		warmPlanNs += time.Since(t0).Nanoseconds()
		if _, err := sys.Exec(context.Background(), q, huge.WithPlan(p), huge.CountOnly()).Wait(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	hits, misses, _ := sys.PlanCacheStats()
	if misses != 1 {
		b.Fatalf("plan cache misses = %d, want 1 (the cold run)", misses)
	}
	if hits < uint64(b.N) {
		b.Fatalf("plan cache hits = %d, want >= %d", hits, b.N)
	}
	b.ReportMetric(coldPlanNs, "coldPlanNs")
	b.ReportMetric(float64(warmPlanNs)/float64(b.N), "warmPlanNs/op")
	b.ReportMetric(coldPlanNs/(float64(warmPlanNs)/float64(b.N)), "planSpeedup")
}

// BenchmarkServe_ConcurrentSessions drives the System the way heavy-traffic
// serving does: 8 goroutines issuing the catalog's cheap queries at once on
// one shared deployment.
func BenchmarkServe_ConcurrentSessions(b *testing.B) {
	e := tinyEnv()
	g := e.Dataset("GO")
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2, QueueRows: 1 << 16})
	queries := []*query.Query{query.Triangle(), query.Q1(), query.Q2()}
	b.RunParallel(func(pb *testing.PB) {
		sess := sys.NewSession()
		i := 0
		for pb.Next() {
			if _, err := sess.Exec(context.Background(), queries[i%len(queries)], huge.CountOnly()).Wait(); err != nil {
				// b.Fatal must not run on a RunParallel worker goroutine.
				b.Error(err)
				return
			}
			i++
		}
	})
	hits, misses, _ := sys.PlanCacheStats()
	b.ReportMetric(float64(hits), "planHits")
	b.ReportMetric(float64(misses), "planMisses")
}

// BenchmarkDeltaVsFull measures incremental match maintenance: after a
// ≤1% edge delta, maintaining the triangle count with delta-mode
// enumeration (matches pinned on the changed edges) versus a cold full
// re-enumeration of the new snapshot. The delta path should win by an
// order of magnitude — that gap is what makes update-serving viable.
func BenchmarkDeltaVsFull(b *testing.B) {
	g := huge.Generate("LJ", 1)
	q := query.Triangle()
	sys := huge.NewSystem(g, huge.Options{Machines: 4, Workers: 2})
	var d huge.Delta
	for _, u := range gen.UpdateStream(g, int(g.NumEdges()/100), 5) { // 1% of edges
		if u.Del {
			d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
		} else {
			d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
		}
	}
	sys.Apply(d)
	b.Run("FullRecount", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.Count), "matches")
		}
	})
	b.Run("DeltaMaintain", func(b *testing.B) {
		dq := q.Delta()
		for i := 0; i < b.N; i++ {
			res, err := sys.Exec(context.Background(), dq, huge.CountOnly()).Wait()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(res.DeltaNew+res.DeltaDead), "changedMatches")
		}
	})
}

// fanoutPatterns is the standing-query workload: 8 distinct small patterns,
// the shape of a production subscription population (many consumers, few
// patterns).
func fanoutPatterns() []*huge.Query {
	return []*huge.Query{
		huge.Triangle(),
		huge.NewQuery("p3", [][2]int{{0, 1}, {1, 2}}),
		huge.NewQuery("p4", [][2]int{{0, 1}, {1, 2}, {2, 3}}),
		huge.NewQuery("star3", [][2]int{{0, 1}, {0, 2}, {0, 3}}),
		huge.NewQuery("square", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}}),
		huge.NewQuery("tailed-tri", [][2]int{{0, 1}, {1, 2}, {0, 2}, {2, 3}}),
		huge.NewQuery("p5", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}}),
		huge.NewQuery("diamond", [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}}),
	}
}

// fanoutDeltas builds a flip-flop delta pair (d and its inverse) of ops
// updates, so repeated applies oscillate between two snapshots and every
// iteration pays comparable maintenance work.
func fanoutDeltas(g *huge.Graph, ops int, seed int64) [2]huge.Delta {
	var d, inv huge.Delta
	for _, u := range gen.UpdateStream(g, ops, seed) {
		e := [2]huge.VertexID{u.U, u.V}
		if u.Del {
			d.Delete = append(d.Delete, e)
			inv.Insert = append(inv.Insert, e)
		} else {
			d.Insert = append(d.Insert, e)
			inv.Delete = append(inv.Delete, e)
		}
	}
	return [2]huge.Delta{d, inv}
}

// BenchmarkSubscribeFanout measures the standing-query serving claim: a
// large subscriber population over ~8 patterns costs per Apply about the
// 8 shared delta runs plus one channel operation per subscriber — NOT one
// delta run per subscriber. Variants: Apply alone (the floor), 8
// standalone delta runs per Apply (what the shared maintenance should
// roughly cost regardless of population), shared fan-out at 1K and 100K
// subscribers, and a naive per-subscriber re-run at 64 subscribers (the
// quadratic baseline). Allocations per op are reported to track the
// delta-path scratch pooling.
func BenchmarkSubscribeFanout(b *testing.B) {
	patterns := fanoutPatterns()
	newSys := func() (*huge.System, [2]huge.Delta) {
		// A mild-tailed graph and a small delta: the quantity under test is
		// the fan-out overhead per subscriber, not enumeration volume (the
		// p5/star/diamond patterns explode combinatorially on heavy tails).
		g := gen.PowerLaw(2000, 3, 21)
		return huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2}), fanoutDeltas(g, 40, 5)
	}

	b.Run("apply-only", func(b *testing.B) {
		sys, dd := newSys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Apply(dd[i%2])
		}
	})

	// The standalone baseline enumerates matches (OnMatch), as subscription
	// delivery does — counting-only runs would compare compressed counting
	// against materialisation.
	enumerate := func(b *testing.B, sys *huge.System, q *huge.Query) {
		b.Helper()
		if _, err := sys.Exec(context.Background(), q.Delta(),
			huge.OnMatch(func([]huge.VertexID) {})).Wait(); err != nil {
			b.Fatal(err)
		}
	}

	b.Run("standalone-8", func(b *testing.B) {
		sys, dd := newSys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Apply(dd[i%2])
			for _, q := range patterns {
				enumerate(b, sys, q)
			}
		}
	})

	for _, subs := range []int{1_000, 100_000} {
		b.Run(fmt.Sprintf("shared-subs=%d", subs), func(b *testing.B) {
			sys, dd := newSys()
			for i := 0; i < subs; i++ {
				// Small buffers keep 100K channels modest; the shed policy
				// keeps undrained subscribers at one failed-send per event.
				if _, err := sys.Subscribe(patterns[i%len(patterns)], huge.SubBuffer(4)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Apply(dd[i%2])
			}
			b.StopTimer()
			ms := sys.MaintenanceStats()
			b.ReportMetric(float64(ms.SharedRuns)/float64(b.N), "sharedRuns/apply")
			b.ReportMetric(float64(ms.DedupedRuns)/float64(b.N), "dedupedRuns/apply")
			b.ReportMetric(float64(ms.FannedEvents+ms.ShedEvents)/float64(b.N), "fanouts/apply")
		})
	}

	b.Run("naive-subs=64", func(b *testing.B) {
		sys, dd := newSys()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sys.Apply(dd[i%2])
			// Naive serving: every subscriber re-runs its own delta query.
			for s := 0; s < 64; s++ {
				enumerate(b, sys, patterns[s%len(patterns)])
			}
		}
	})
}

// BenchmarkGroupByVsEnumerate: engine-side aggregation — grouped counting
// inside the compressed counting path against its two brackets: CountOnly (the
// floor it must stay within ~2x of on peak tuples) and a client-side
// OnMatch enumeration loop building the same per-community map (the
// ceiling it should undercut by >=10x, since enumeration materialises
// every match the grouped run never builds).
func BenchmarkGroupByVsEnumerate(b *testing.B) {
	g := gen.CommunityLabels(gen.PowerLaw(3000, 5, 23), gen.DefaultCommunities, 29)
	sys := huge.NewSystem(g, huge.Options{Machines: 4, Workers: 2})
	ctx := context.Background()
	q := huge.NewQuery("star3", [][2]int{{0, 1}, {0, 2}, {0, 3}})

	report := func(b *testing.B, res huge.Result) {
		b.Helper()
		b.ReportMetric(float64(res.Metrics.PeakTuples), "peakTuples")
		b.ReportMetric(float64(res.Count), "results")
	}
	b.Run("Count", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait()
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
		}
	})
	b.Run("GroupBy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.Exec(ctx, q, huge.GroupBy(huge.VertexLabelOf(0))).Wait()
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
			b.ReportMetric(float64(len(res.Groups)), "groups")
		}
	})
	b.Run("TopGroups", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := sys.Exec(ctx, q,
				huge.GroupBy(huge.VertexLabelOf(0)), huge.TopGroups(10)).Wait()
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
		}
	})
	b.Run("Enumerate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var mu sync.Mutex
			counts := map[huge.LabelID]uint64{}
			res, err := sys.Exec(ctx, q, huge.OnMatch(func(m []huge.VertexID) {
				l := g.Label(m[0])
				mu.Lock()
				counts[l]++
				mu.Unlock()
			})).Wait()
			if err != nil {
				b.Fatal(err)
			}
			report(b, res)
		}
	})
}

// BenchmarkIntersectKernels: the degree-adaptive intersection kernels —
// legacy merge/gallop list kernels vs the hub-bitset dispatcher, on operand
// sets sampled from the hubs of a power-law graph.
func BenchmarkIntersectKernels(b *testing.B) {
	g := gen.PowerLaw(3000, 16, 31)
	var hubs []graph.VertexID
	for v := 0; v < g.NumVertices(); v++ {
		if g.HubBitset(graph.VertexID(v)) != nil {
			hubs = append(hubs, graph.VertexID(v))
		}
	}
	if len(hubs) < 2 {
		b.Fatalf("no hubs at threshold %d", g.HubMinDegree())
	}
	var lists [][][]graph.VertexID
	var sets [][]graph.NbrList
	for i := 0; i < 64; i++ {
		u, v := hubs[i%len(hubs)], hubs[(i*7+1)%len(hubs)]
		if u == v {
			v = hubs[(i*7+2)%len(hubs)]
		}
		lists = append(lists, [][]graph.VertexID{g.Neighbors(u), g.Neighbors(v)})
		sets = append(sets, []graph.NbrList{
			{List: g.Neighbors(u), Bits: g.HubBitset(u)},
			{List: g.Neighbors(v), Bits: g.HubBitset(v)},
		})
	}
	var sc graph.IntersectScratch
	sink := 0
	b.Run("Legacy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, l := range lists {
				sink += len(graph.IntersectMany(l, &sc))
			}
		}
	})
	b.Run("Adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				sink += graph.IntersectAdaptive(s, &sc).Len()
			}
		}
	})
	b.Run("CountAdaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sets {
				sink += graph.IntersectCountAdaptive(s, &sc)
			}
		}
	})
	_ = sink
}

// BenchmarkPushJoin: the PUSH-JOIN data path on its own (Section 4.3) —
// `relation` is one join buffer's life (Add 10^6 rows, Finalize, drain),
// `q7_count` and `q7_rows` are EU q7 at Machines:2 under Exp-9's hybrid
// plan, a 3-path ⋈ 2-path PUSH-JOIN passed explicitly (the optimiser now
// counts q7 as a 3-path with its ends in closed form), counted and
// delivered through OnMatch. Every leg fails on a wrong count or on a run
// that pushed nothing.
func BenchmarkPushJoin(b *testing.B) {
	b.Run("relation", func(b *testing.B) {
		const n = 1_000_000
		rows := make([]graph.VertexID, 4*n)
		rng := rand.New(rand.NewSource(7))
		for i := range rows {
			rows[i] = graph.VertexID(rng.Intn(1 << 16))
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rel := engine.NewRelation(4, []int{1, 2}, 0, nil)
			for r := 0; r < n; r++ {
				if err := rel.Add(rows[4*r : 4*r+4]); err != nil {
					b.Fatal(err)
				}
			}
			it, err := rel.Finalize()
			if err != nil {
				b.Fatal(err)
			}
			drained := 0
			for {
				_, ok, err := it.Next()
				if err != nil {
					b.Fatal(err)
				}
				if !ok {
					break
				}
				drained++
			}
			if err := it.Close(); err != nil {
				b.Fatal(err)
			}
			if drained != n {
				b.Fatalf("drained %d rows, want %d", drained, n)
			}
		}
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	})

	sys := huge.NewSystem(gen.ByName("EU", 1), huge.Options{Machines: 2, Workers: 1})
	q := query.Q7()
	ctx := context.Background()
	ref, err := sys.Exec(ctx, q, huge.WithPlan(sys.PlanFor(q, "wco")), huge.CountOnly()).Wait()
	if err != nil {
		b.Fatal(err)
	}
	// v2–v3 ⋈ v3–v4 by extension, then ⋈ the 2-path v4–v5–v6 by push. The
	// edge masks index q7's edges (v1,v2) … (v5,v6) as bits 0 … 4.
	push := &plan.Plan{Q: q, Name: "exp9-push-join", Root: &plan.Node{
		Edges: 0b11111, Alg: plan.HashJoin, Comm: plan.Pushing,
		Left: &plan.Node{
			Edges: 0b00111, Alg: plan.WcoJoin, Comm: plan.Pulling,
			Left:  &plan.Node{Edges: 0b00011}, // star(v2; v1, v3)
			Right: &plan.Node{Edges: 0b00100}, // star(v3; v4)
		},
		Right: &plan.Node{Edges: 0b11000}, // star(v5; v4, v6)
	}}
	var delivered atomic.Uint64
	q7 := func(opt huge.Option, wantDelivered uint64) func(*testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				delivered.Store(0)
				res, err := sys.Exec(ctx, q, opt, huge.WithPlan(push)).Wait()
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != ref.Count || delivered.Load() != wantDelivered || res.Metrics.BytesPushed == 0 {
					b.Fatalf("count = %d, delivered %d, pushed %d B; want %d matches through a pushing join",
						res.Count, delivered.Load(), res.Metrics.BytesPushed, ref.Count)
				}
			}
			b.ReportMetric(float64(ref.Count)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
		}
	}
	b.Run("q7_count", q7(huge.CountOnly(), 0))
	b.Run("q7_rows", q7(huge.OnMatch(func([]huge.VertexID) { delivered.Add(1) }), ref.Count))
}

// BenchmarkSeparatorLadder counts the ladder q6 on LJ×1 at its middle
// rung (`CountOnly`, Workers 1) at Machines 1 and 2: one walk over the
// smaller end's 2-hop per scanned rung. No tracked workload counts q6 at
// this scale. Each run fails on a count other than LJ×1's 137,643,260.
func BenchmarkSeparatorLadder(b *testing.B) {
	const want = 137_643_260
	g := huge.Generate("LJ", 1)
	for _, machines := range []int{1, 2} {
		b.Run(fmt.Sprintf("machines%d", machines), func(b *testing.B) {
			sys := huge.NewSystem(g, huge.Options{Machines: machines, Workers: 1})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := sys.Exec(context.Background(), query.Q6(), huge.CountOnly()).Wait()
				if err != nil {
					b.Fatal(err)
				}
				if res.Count != want {
					b.Fatalf("q6 on LJ×1 at Machines %d: %d matches, want %d", machines, res.Count, want)
				}
			}
		})
	}
}
