package main

// The two analytic workloads, count (Machines:1) and cluster (Machines:2):
// passes over a fixed list of heavy counting queries.

import (
	"context"
	"math"
	"math/rand"
	"slices"
	"time"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/dataflow"
	"repro/internal/graph"
)

// tally sums what a window's query Results report; most per-layer metrics
// of an Exec workload are ratios of its fields.
type tally struct {
	execNs, engineNs int64
	matches          uint64
	pulled, pushed   uint64
	rpc              uint64
	hits, misses     uint64
	steals           uint64
	fetchNs, commNs  int64
	peak             int64
	kernels          graph.KernelCounts
	workerNs         int64 // engine time x the deployment's worker count
}

func (t *tally) add(o outcome, wall time.Duration, workers int) {
	m := o.metrics
	t.execNs += wall.Nanoseconds()
	t.engineNs += o.engineNs
	t.workerNs += o.engineNs * int64(workers)
	t.matches += o.count
	t.pulled += m.BytesPulled
	t.pushed += m.BytesPushed
	t.rpc += m.RPCCalls
	t.hits += m.CacheHits
	t.misses += m.CacheMisses
	t.steals += m.StealsIntra + m.StealsInter
	t.fetchNs += m.FetchTime.Nanoseconds()
	t.commNs += m.CommTime.Nanoseconds()
	t.peak = max(t.peak, m.PeakTuples)
	t.kernels.Add(m.Kernels)
}

func (t *tally) merge(o tally) {
	t.execNs += o.execNs
	t.engineNs += o.engineNs
	t.workerNs += o.workerNs
	t.matches += o.matches
	t.pulled += o.pulled
	t.pushed += o.pushed
	t.rpc += o.rpc
	t.hits += o.hits
	t.misses += o.misses
	t.steals += o.steals
	t.fetchNs += o.fetchNs
	t.commNs += o.commNs
	t.peak = max(t.peak, o.peak)
	t.kernels.Add(o.kernels)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// report emits the Result-derived per-layer metrics, averaged per round.
func (t *tally) report(r *result, rounds, ops int) {
	n := float64(max(rounds, 1))
	const mb = 1 << 20
	r.set("cluster.rpc_calls", float64(t.rpc)/n, ops)
	r.set("cluster.pulled_mb", float64(t.pulled)/mb/n, ops)
	r.set("cluster.pushed_mb", float64(t.pushed)/mb/n, ops)
	r.set("cache.hit_ratio", ratio(float64(t.hits), float64(t.hits+t.misses)), ops)
	k := t.kernels
	r.set("graph.kernel_merge_share", ratio(float64(k.Merge+k.CountMerge), float64(k.Total())), ops)
	r.set("engine.run_share", ratio(float64(t.engineNs), float64(t.execNs)), ops)
	r.set("engine.comm_ms", float64(t.commNs)/1e6/n, ops)
	r.set("engine.steals", float64(t.steals)/n, ops)
}

// analyticSetup is one deployment set of an analytic workload.
type analyticSetup struct {
	deps    []*deployment
	classes []*request
}

func workersOf(o huge.Options) int { return max(o.Machines, 1) * max(o.Workers, 1) }

// setupAnalytic generates the graphs, deploys them and primes what a first
// request would otherwise pay: the optimiser's plan for every class and one
// triangle count per graph (which builds the lazy hub-bitset index).
func setupAnalytic(workload string, sz sizes) *analyticSetup {
	ctx := context.Background()
	tri, q1, q2, q3 := huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q3()
	as := &analyticSetup{}
	plain := func(d *deployment, name string, q *huge.Query) *request {
		return &request{class: d.name + "." + name, dep: d, q: q, limit: -1}
	}
	if workload == "count" {
		opts := huge.Options{Machines: 1, Workers: 2}
		lj := deploy("lj", sz.dataset("LJ", sz.ljScale, true), opts)
		or := deploy("or", sz.dataset("OR", sz.orScale, false), opts)
		as.deps = []*deployment{lj, or}
		byLabel := plain(lj, "triangle.by_label", tri)
		byLabel.group, byLabel.key = &dataflow.GroupSpec{Kind: dataflow.GroupByVertexLabel, QV: 0}, huge.VertexLabelOf(0)
		byVertex := plain(lj, "q1.top_vertices", q1)
		byVertex.group, byVertex.key, byVertex.topGroups = &dataflow.GroupSpec{Kind: dataflow.GroupByVertex, QV: 0}, huge.VertexVar(0), 10
		as.classes = []*request{
			plain(lj, "triangle", tri), plain(lj, "q1", q1), plain(lj, "q2", q2), plain(lj, "q3", q3),
			byLabel, byVertex,
			plain(or, "triangle", tri), plain(or, "q3", q3),
		}
	} else {
		opts := huge.Options{Machines: 2, Workers: 1}
		lj := deploy("lj", sz.dataset("LJ", sz.ljScale, false), opts)
		eu := deploy("eu", sz.dataset("EU", sz.euScale, false), opts)
		as.deps = []*deployment{lj, eu}
		as.classes = []*request{
			plain(lj, "triangle", tri), plain(lj, "q1", q1), plain(lj, "q2", q2),
			plain(eu, "q7", huge.Q7()), plain(eu, "q6", huge.Q6()),
		}
	}
	for _, c := range as.classes {
		family := "optimal"
		if c.group != nil {
			family = "wco"
		}
		c.dep.sys.PlanFor(c.q, family)
	}
	for _, d := range as.deps {
		// Errors surface again, counted, in the first measured pass.
		_, _ = d.sys.Exec(ctx, tri, huge.CountOnly()).Wait()
	}
	return as
}

// isAux says whether the class is the workload's secondary operation: the
// grouped aggregations on count, the push-join on cluster.
func isAux(workload string, c *request) bool {
	if workload == "count" {
		return c.group != nil
	}
	return c.class == "eu.q7"
}

// analyticWindow is what a run of passes measured.
type analyticWindow struct {
	passes   int
	passS    series             // per pass: the summed time of its queries, s
	classMs  map[string]*series // per class: one latency per pass, ms
	commMB   []float64
	peak     []float64
	tally    tally
	ops      int
	allocKB  float64
	counts   map[string]uint64  // per class, from the first pass
	engineNs map[string]float64 // per class, summed over passes, reference-machine ns
}

// runPasses runs passes whole passes through System.Exec or, with a tracer,
// the replay, with a reference lap around every query.
func runPasses(r *result, as *analyticSetup, order []int, passes int, tr *tracer) *analyticWindow {
	ctx := context.Background()
	w := &analyticWindow{counts: map[string]uint64{}, engineNs: map[string]float64{}, classMs: map[string]*series{}}
	for _, c := range as.classes {
		w.classMs[c.class] = &series{}
	}
	alloc0 := totalAlloc()
	reqID := 0
	for ; w.passes < passes; w.passes++ {
		var passTally tally
		var passRaw, passRef float64
		r.ref.lap()
		for _, ci := range order {
			c := as.classes[ci]
			reqID++
			r.op()
			t0 := time.Now()
			o, err := execVia(ctx, tr, reqID, c)
			wall := time.Since(t0)
			speed := r.ref.lap()
			if tr != nil {
				tr.setSpeed(reqID, reqID, speed)
			}
			if err != nil {
				r.fail("%s: %v", c.class, err)
				continue
			}
			w.classMs[c.class].add(float64(wall.Nanoseconds())/1e6, speed)
			passRaw += wall.Seconds()
			passRef += wall.Seconds() * speed
			passTally.add(o, wall, workersOf(c.dep.opts))
			w.engineNs[c.class] += float64(o.engineNs) * speed
			if prev, seen := w.counts[c.class]; !seen {
				w.counts[c.class] = o.count
			} else if prev != o.count {
				r.fail("%s: count %d differs from the first pass's %d", c.class, o.count, prev)
			}
			// System returns only the top groups under TopGroups; the replay's
			// table is always whole.
			if c.group != nil && (tr != nil || c.topGroups == 0) && o.groupSum != o.count {
				r.fail("%s: groups sum to %d, count is %d", c.class, o.groupSum, o.count)
			}
		}
		if passRaw > 0 {
			w.passS.add(passRaw, passRef/passRaw)
		}
		w.commMB = append(w.commMB, float64(passTally.pulled+passTally.pushed)/(1<<20))
		w.peak = append(w.peak, float64(passTally.peak)/1e6)
		w.ops += len(order)
		w.tally.merge(passTally)
	}
	w.allocKB = float64(totalAlloc()-alloc0) / 1024
	return w
}

// otherFamily runs every plain class once under the wco plan family — the
// second opinion every optimiser-picked count is checked against, and the
// warm-up pass (it runs before timing starts). It returns per-class counts
// and engine times (reference-machine ns).
func otherFamily(r *result, as *analyticSetup) (map[string]uint64, map[string]float64) {
	ctx := context.Background()
	counts, engineNs := map[string]uint64{}, map[string]float64{}
	r.ref.lap()
	for _, c := range as.classes {
		if c.group != nil {
			continue
		}
		alt := *c
		alt.family = "wco"
		r.op()
		o, err := systemExec(ctx, &alt)
		speed := r.ref.lap()
		if err != nil {
			r.fail("%s under wco: %v", c.class, err)
			continue
		}
		counts[c.class], engineNs[c.class] = o.count, float64(o.engineNs)*speed
	}
	return counts, engineNs
}

// checkAnalytic applies the oracle: optimiser-picked count == wco count,
// grouped count == the same pattern's plain count, and under -tiny all of
// them == the ground-truth enumerator's.
func checkAnalytic(r *result, sz sizes, as *analyticSetup, counts, wco map[string]uint64) {
	for _, c := range as.classes {
		got, ok := counts[c.class]
		if !ok {
			continue // already counted as a failed operation
		}
		if c.group == nil {
			r.check(got == wco[c.class], "%s: optimal plan counts %d, wco plan %d", c.class, got, wco[c.class])
		} else {
			for _, p := range as.classes {
				if p.group == nil && p.dep == c.dep && p.q == c.q {
					r.check(got == counts[p.class], "%s: grouped count %d, plain count %d", c.class, got, counts[p.class])
				}
			}
		}
		if sz.tiny {
			want := baseline.GroundTruthCount(c.dep.g, c.q)
			r.check(got == want, "%s: count %d, ground truth %d", c.class, got, want)
		}
	}
}

func runAnalytic(r *result, workload string, sz sizes, seed int64, seconds float64, trace bool, outDir string) {
	rng := rand.New(rand.NewSource(seed))
	var as *analyticSetup
	setups := r.timeSetups(sz.setups(trace), func() { as = nil }, func() bool {
		as = setupAnalytic(workload, sz)
		return true
	})
	order := rng.Perm(len(as.classes))
	wcoCounts, wcoNs := otherFamily(r, as)
	passes := sz.rounds(workload, seconds)

	if !trace {
		w := runPasses(r, as, order, passes, nil)
		checkAnalytic(r, sz, as, w.counts, wcoCounts)
		// Each class at its median over the window's passes: a slow spell of
		// the machine then costs the samples it hit, not every pass it
		// touched. stat summarises the class medians, in reference-machine
		// time or as measured.
		classStat := func(keep func(*request) bool, stat func([]float64) float64) (ref, raw float64) {
			var refs, raws []float64
			for _, c := range as.classes {
				if keep(c) {
					refs = append(refs, median(w.classMs[c.class].ref()))
					raws = append(raws, median(w.classMs[c.class].raw))
				}
			}
			return stat(refs), stat(raws)
		}
		all := func(*request) bool { return true }
		aux := func(c *request) bool { return isAux(workload, c) }
		for _, c := range as.classes {
			ms := w.classMs[c.class].ref()
			r.note("class %-20s median %8.1f ms over %d passes (spread %.0f%%), count %d", c.class, median(ms), len(ms), 100*spreadOf(ms), w.counts[c.class])
		}
		passSpread := spreadOf(w.passS.ref())
		passMs, passRawMs := classStat(all, sum)
		n := float64(len(as.classes))
		r.setRefMedian("setup_s", setups, len(setups.raw))
		r.setRef("ops_per_s", n/(passMs/1e3), n/(passRawMs/1e3), w.ops, passSpread)
		r.setRef("pass_s", passMs/1e3, passRawMs/1e3, w.passes, passSpread)
		v, raw := classStat(all, func(xs []float64) float64 { return quantile(xs, 0.5) })
		r.setRef("op_p50_ms", v, raw, w.ops, passSpread)
		v, raw = classStat(all, func(xs []float64) float64 { return quantile(xs, 0.95) })
		r.setRef("op_p95_ms", v, raw, w.ops, passSpread)
		v, raw = classStat(aux, mean)
		r.setRef("aux_p50_ms", v, raw, w.passes, passSpread)
		r.set("alloc_kb_per_op", w.allocKB/float64(w.ops), w.ops)
		r.set("peak_rss_mb", peakRSSMB(), 1)
		r.setSpread("peak_mtuples", slices.Max(w.peak), len(w.peak), spreadOf(w.peak))
		if workload == "cluster" {
			r.setMedian("comm_mb_per_pass", w.commMB)
		}
		return
	}

	// Traced run: a short untraced window, the same list replayed step by
	// step with spans, then the layer probes.
	passes = (passes + 3) / 4
	h0, m0 := planCacheStats(as.deps)
	w := runPasses(r, as, order, passes, nil)
	h1, m1 := planCacheStats(as.deps)
	checkAnalytic(r, sz, as, w.counts, wcoCounts)
	tr := newTracer()
	tw := runPasses(r, as, order, passes, tr)
	for _, c := range as.classes {
		r.check(tw.counts[c.class] == w.counts[c.class], "%s: replay counts %d, System.Exec %d", c.class, tw.counts[c.class], w.counts[c.class])
	}
	if err := tr.write(tracePath(outDir, workload)); err != nil {
		r.fail("writing trace: %v", err)
	}
	tr.noteSelfTimes(r)
	if workload == "cluster" {
		r.setMedian("comm_mb_per_pass", w.commMB)
	}
	w.tally.report(r, w.passes, w.ops)
	t := w.tally
	var engineNs float64
	for _, ns := range w.engineNs {
		engineNs += ns
	}
	r.set("engine.matches_per_s", ratio(float64(t.matches), engineNs/1e9), w.ops)
	r.set("engine.fetch_share", ratio(float64(t.fetchNs), float64(t.workerNs)), w.ops)
	r.set("plan.cache_hit_ratio", ratio(h1-h0, h1-h0+m1-m0), int(h1-h0+m1-m0))
	r.set("bench.trace_overhead", ratio(float64(tw.ops)/sum(tw.passS.ref()), float64(w.ops)/sum(w.passS.ref())), tw.ops)

	// Plan regret: what the optimiser's pick costs against the better of
	// the two families, per plain class, on engine time alone.
	var logSum, worst float64
	var n int
	for _, c := range as.classes {
		if c.group != nil || wcoNs[c.class] == 0 || w.engineNs[c.class] == 0 {
			continue
		}
		picked := w.engineNs[c.class] / float64(w.passes)
		regret := picked / math.Min(picked, wcoNs[c.class])
		r.note("plan regret %s: optimal %.1f ms, wco %.1f ms -> %.2fx", c.class, picked/1e6, wcoNs[c.class]/1e6, regret)
		logSum += math.Log(regret)
		worst = max(worst, regret)
		n++
	}
	r.set("plan.regret_gmean", math.Exp(logSum/float64(max(n, 1))), n)
	r.set("plan.regret_max", worst, n)

	big := as.deps[0]
	probeSystem(r, big.g, big.opts)
	lj := as.deps[0].g
	probeIntersect(r, "graph.intersect_ns_per_elem", lj, samplePairs(lj, sz.pairs, false, rng), false)
	if workload == "count" {
		or := as.deps[1].g
		or.EnsureHubIndex()
		if or.NumHubs() > 0 {
			probeIntersect(r, "graph.intersect_hub_ns_per_elem", or, samplePairs(or, sz.pairs, true, rng), true)
		} else {
			r.set("graph.intersect_hub_ns_per_elem", 0, 0)
			r.note("OR has no hub bitsets at this scale: graph.intersect_hub_ns_per_elem not measured")
		}
		probeHubIndex(r, or, seed)
		probeSpeedup(r, as, w)
	} else {
		probeCache(r, lj, sz.probeN, rng)
		probeJoinBuffer(r, sz.probeN, rng)
	}
}

// planCacheStats sums the deployments' plan-cache counters.
func planCacheStats(deps []*deployment) (hits, misses float64) {
	for _, d := range deps {
		h, m, _ := d.sys.PlanCacheStats()
		hits += float64(h)
		misses += float64(m)
	}
	return hits, misses
}

// probeSpeedup measures engine.speedup_w2: the plain LJ classes once more
// on a Workers:1 System against their Workers:2 engine times in w.
func probeSpeedup(r *result, as *analyticSetup, w *analyticWindow) {
	ctx := context.Background()
	lj := as.deps[0]
	one := huge.NewSystem(lj.g, huge.Options{Machines: 1, Workers: 1})
	var ns1, ns2 float64
	r.ref.lap()
	for _, c := range as.classes {
		if c.dep != lj || c.group != nil {
			continue
		}
		res, err := one.Exec(ctx, c.q, huge.CountOnly()).Wait()
		speed := r.ref.lap()
		r.op()
		if err != nil {
			r.fail("%s at Workers:1: %v", c.class, err)
			continue
		}
		r.check(res.Count == w.counts[c.class], "%s: Workers:1 counts %d, Workers:2 %d", c.class, res.Count, w.counts[c.class])
		ns1 += float64(res.Elapsed.Nanoseconds()) * speed
		ns2 += w.engineNs[c.class] / float64(w.passes)
	}
	r.set("engine.speedup_w2", ratio(ns1, ns2), 1)
}
