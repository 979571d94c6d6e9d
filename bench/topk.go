package main

// The interactive workload: Limit(k) requests against a governed System,
// one closed-loop client.

import (
	"context"
	"math/rand"
	"time"

	"repro/huge"
	"repro/internal/plan"
)

// blockMix is one block of 20 requests; a round is roundOps/20 blocks.
var blockMix = []struct {
	class string
	n     int
}{
	{"triangle.k1", 8}, {"q1.k10", 4}, {"q3.k10", 3}, {"adhoc.k10", 2}, {"q4.k100", 2}, {"page", 1},
}

const (
	blockLen  = 20
	adhocK    = 10
	pageK     = 1000
	smallKMax = 10 // classes with k <= 10 make up op_p50_ms / op_p95_ms
)

type topkSetup struct {
	dep     *deployment
	classes map[string]*request
}

var topkOptions = huge.Options{Machines: 1, Workers: 2, Governor: &huge.GovernorConfig{}}

// setupTopk generates LJ x4 with labels, deploys it governed, and primes
// it with primeOps requests (every class at least once).
func setupTopk(sz sizes, pool []adhoc, opts huge.Options) *topkSetup {
	dep := deploy("lj4", sz.dataset("LJ", 4*sz.ljScale, true), opts)
	mk := func(class string, q *huge.Query, k int) *request {
		return &request{class: class, dep: dep, q: q, limit: k}
	}
	ts := &topkSetup{dep: dep, classes: map[string]*request{
		"triangle.k1": mk("triangle.k1", huge.Triangle(), 1),
		"q1.k10":      mk("q1.k10", huge.Q1(), 10),
		"q3.k10":      mk("q3.k10", huge.Q3(), 10),
		"q4.k100":     mk("q4.k100", huge.Q4(), 100),
		"page":        mk("page", huge.Triangle(), pageK),
		"adhoc.k10":   mk("adhoc.k10", nil, adhocK),
	}}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < sz.primeOps; i += blockLen {
		for _, rq := range ts.block(rng, pool) {
			// Errors surface again, counted, in the measured rounds.
			_, _ = systemExec(ctx, rq)
		}
	}
	return ts
}

// block returns the next 20 requests in a seeded order; each ad-hoc request
// draws its pattern from the pool.
func (ts *topkSetup) block(rng *rand.Rand, pool []adhoc) []*request {
	out := make([]*request, 0, blockLen)
	for _, m := range blockMix {
		for i := 0; i < m.n; i++ {
			rq := ts.classes[m.class]
			if rq.q == nil {
				a := pool[rng.Intn(len(pool))]
				rq = &request{class: rq.class, dep: rq.dep, text: a.text, limit: rq.limit}
			}
			out = append(out, rq)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

type topkWindow struct {
	rounds         int
	roundS         series // per round: the summed time of its requests, s
	p50, p95, page series // per round, ms
	peak           []float64 // per round: mean PeakTuples of a request, 10^6 tuples
	samples, pageN int
	ops            int
	allocKB        float64
	tally          tally
	spanP50        series // replay only, per round: median summed child spans of a k<=10 request, ms
}

// runRounds issues rounds rounds of roundOps requests, with a reference
// lap around every round. Matches are verified after each request's clock
// has stopped; verification is not part of any time.
func runRounds(r *result, ts *topkSetup, pool []adhoc, rng *rand.Rand, roundOps, rounds int, tr *tracer) *topkWindow {
	ctx := context.Background()
	w := &topkWindow{}
	alloc0 := totalAlloc()
	reqID := 0
	r.ref.lap()
	for ; w.rounds < rounds; w.rounds++ {
		var small, page, spanSums []float64
		var roundTally tally
		var busy time.Duration
		var peakSum int64
		firstReq := reqID + 1
		for b := 0; b < roundOps/blockLen; b++ {
			for _, rq := range ts.block(rng, pool) {
				reqID++
				r.op()
				t0 := time.Now()
				o, err := execVia(ctx, tr, reqID, rq)
				wall := time.Since(t0)
				busy += wall
				if err != nil {
					r.fail("%s: %v", rq.class, err)
					continue
				}
				if err := verifyMatches(rq.dep.g, o.q, rq.limit, o.matches); err != nil {
					r.fail("%s: %v", rq.class, err)
				}
				us := float64(wall.Nanoseconds()) / 1e3
				switch {
				case rq.class == "page":
					page = append(page, us)
				case rq.limit <= smallKMax:
					small = append(small, us)
					if tr != nil {
						spanSums = append(spanSums, childSpanSum(tr, reqID))
					}
				}
				roundTally.add(o, wall, workersOf(rq.dep.opts))
				peakSum += o.metrics.PeakTuples
			}
		}
		speed := r.ref.lap()
		if tr != nil {
			tr.setSpeed(firstReq, reqID, speed)
			w.spanP50.add(quantile(spanSums, 0.5)/1e3, speed)
		}
		w.samples += len(small)
		w.pageN += len(page)
		w.roundS.add(busy.Seconds(), speed)
		w.p50.add(quantile(small, 0.5)/1e3, speed)
		w.p95.add(quantile(small, 0.95)/1e3, speed)
		w.page.add(quantile(page, 0.5)/1e3, speed)
		// The mean, not the max: the round's largest request is whichever
		// ad-hoc pattern the seed drew, and moves 20% from seed to seed.
		w.peak = append(w.peak, float64(peakSum)/float64(roundOps)/1e6)
		w.tally.merge(roundTally)
		w.ops += roundOps / blockLen * blockLen
	}
	w.allocKB = float64(totalAlloc()-alloc0) / 1024
	return w
}

// childSpanSum adds up the layer spans directly under request id's root, in
// microseconds as measured.
func childSpanSum(tr *tracer, id int) float64 {
	var root int
	var sum int64
	for i := len(tr.spans) - 1; i >= 0 && tr.spans[i].Request == id; i-- {
		s := tr.spans[i]
		if s.Parent == 0 {
			root = s.ID
		}
	}
	for i := len(tr.spans) - 1; i >= 0 && tr.spans[i].Request == id; i-- {
		if s := tr.spans[i]; s.Parent == root {
			sum += s.EndNs - s.StartNs
		}
	}
	return float64(sum) / 1e3
}

func runTopk(r *result, sz sizes, seed int64, seconds float64, trace bool, outDir string) {
	rng := rand.New(rand.NewSource(seed))
	// Input preparation, before any set-up is timed: the ad-hoc pool needs a
	// System to probe which label-constrained patterns have enough matches.
	probe := huge.NewSystem(sz.dataset("LJ", 4*sz.ljScale, true), huge.Options{Machines: 1, Workers: 2})
	pool, err := adhocPool(probe, sz.adhocPool, adhocK, rng)
	if err != nil {
		r.op()
		r.fail("%v", err)
		return
	}
	probe = nil
	r.note("adhoc pool: %d patterns (plan cache holds %d)", len(pool), plan.DefaultCacheCapacity)

	var ts *topkSetup
	setups := r.timeSetups(sz.setups(trace), func() { ts = nil }, func() bool {
		ts = setupTopk(sz, pool, topkOptions)
		return true
	})
	rounds := sz.rounds("topk", seconds)

	if !trace {
		w := runRounds(r, ts, pool, rng, sz.roundOps, rounds, nil)
		n := float64(sz.roundOps)
		r.setRefMedian("setup_s", setups, len(setups.raw))
		r.setRef("ops_per_s", n/median(w.roundS.ref()), n/median(w.roundS.raw), w.ops, spreadOf(w.roundS.ref()))
		r.setRefMedian("pass_s", w.roundS, w.rounds)
		r.setRefMedian("op_p50_ms", w.p50, w.samples)
		r.setRefMedian("op_p95_ms", w.p95, w.samples)
		r.setRefMedian("aux_p50_ms", w.page, w.pageN)
		r.setRefMedian("page_p50_ms", w.page, w.pageN)
		r.set("alloc_kb_per_op", w.allocKB/float64(w.ops), w.ops)
		r.set("peak_rss_mb", peakRSSMB(), 1)
		r.setMedian("peak_mtuples", w.peak)
		checkGovernor(r, ts.dep.sys)
		return
	}

	rounds = (rounds + 3) / 4
	gov0 := ts.dep.sys.GovernorStats()
	h0, m0 := planCacheStats([]*deployment{ts.dep})
	w := runRounds(r, ts, pool, rand.New(rand.NewSource(seed+1)), sz.roundOps, rounds, nil)
	h1, m1 := planCacheStats([]*deployment{ts.dep})
	gov1 := ts.dep.sys.GovernorStats()
	r.setRefMedian("page_p50_ms", w.page, w.pageN)
	w.tally.report(r, w.rounds, w.ops)
	r.set("plan.cache_hit_ratio", ratio(h1-h0, h1-h0+m1-m0), int(h1-h0+m1-m0))
	r.set("huge.gov_admitted", float64(gov1.Admitted-gov0.Admitted), w.ops)
	r.set("huge.gov_waited", float64(gov1.Waited-gov0.Waited), w.ops)
	r.set("huge.gov_shed", float64(gov1.ShedQueue+gov1.ShedMemory-gov0.ShedQueue-gov0.ShedMemory), w.ops)
	checkGovernor(r, ts.dep.sys)
	r.check(w.tally.rpc+w.tally.pulled+w.tally.pushed == 0, "Machines:1 run reports communication: rpc=%d pulled=%d pushed=%d", w.tally.rpc, w.tally.pulled, w.tally.pushed)

	// The same request sequence, replayed step by step with spans.
	tr := newTracer()
	tw := runRounds(r, ts, pool, rand.New(rand.NewSource(seed+1)), sz.roundOps, rounds, tr)
	if err := tr.write(tracePath(outDir, "topk")); err != nil {
		r.fail("writing trace: %v", err)
	}
	r.set("bench.trace_overhead", ratio(float64(tw.ops)/sum(tw.roundS.ref()), float64(w.ops)/sum(w.roundS.ref())), tw.ops)
	d := tr.durations()
	for _, span := range []string{"query.parse", "query.fingerprint", "plan.translate", "cluster.new_exec"} {
		r.set(span+"_us", median(d[span]), len(d[span]))
	}
	sysP50 := median(w.p50.ref()) * 1e3 // us
	r.set("huge.exec_self_us", sysP50-median(tw.spanP50.ref())*1e3, w.samples)
	tr.noteSelfTimes(r)

	// The same sequence once more, round by round on the governed System
	// and on an ungoverned one, so that both see the same machine.
	plainOpts := topkOptions
	plainOpts.Governor = nil
	ungov := setupTopk(sz, pool, plainOpts)
	govRng, plainRng := rand.New(rand.NewSource(seed+1)), rand.New(rand.NewSource(seed+1))
	var governUs []float64
	for i := 0; i < rounds; i++ {
		gw := runRounds(r, ts, pool, govRng, sz.roundOps, 1, nil)
		uw := runRounds(r, ungov, pool, plainRng, sz.roundOps, 1, nil)
		governUs = append(governUs, (gw.p50.ref()[0]-uw.p50.ref()[0])*1e3)
	}
	r.set("huge.govern_us", median(governUs), rounds)

	probeDeliver(r, ts.dep, max(sz.probeN/5000, 20))
	probeEngineFixed(r, ts.dep, max(sz.probeN/500, 50))
	probeOptimize(r, ts.dep.g, ts.dep.opts)
	probeSystem(r, ts.dep.g, ts.dep.opts)
}

// checkGovernor asserts the one-client invariants: nothing waited at the
// admission gate, nothing was shed.
func checkGovernor(r *result, sys *huge.System) {
	g := sys.GovernorStats()
	r.check(g.Waited == 0, "governor: %d requests waited with one client", g.Waited)
	r.check(g.ShedQueue+g.ShedMemory+g.Victims == 0, "governor shed with one client: queue=%d memory=%d victims=%d", g.ShedQueue, g.ShedMemory, g.Victims)
}
