package main

// Layer probes of the traced run: direct timings of one layer's exported
// functions on the workload's own data, for the per-layer metrics that are
// neither a counter in Result.Metrics nor a span of the replay.

import (
	"context"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"repro/huge"
	"repro/internal/cache"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

func tracePath(outDir, workload string) string {
	return filepath.Join(outDir, "trace-"+workload+".jsonl")
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// timeMedian runs fn reps times between two reference laps and returns the
// median duration in nanoseconds of reference-machine time.
func timeMedian(r *result, reps int, fn func()) float64 {
	ds := make([]float64, reps)
	r.ref.lap()
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ds) * r.ref.lap()
}

// probeSystem: plan.compute_stats_ms and huge.new_system_ms, the two parts
// of System construction, on g.
func probeSystem(r *result, g *graph.Graph, opts huge.Options) {
	const reps = 5
	r.set("plan.compute_stats_ms", timeMedian(r, reps, func() { sink += plan.ComputeStats(g).N })/1e6, reps)
	opts.Governor, opts.Persist = nil, nil
	r.set("huge.new_system_ms", timeMedian(r, reps, func() { sink += int(huge.NewSystem(g, opts).Epoch()) })/1e6, reps)
}

// probeOptimize: plan.optimize_us, the cold optimiser, mean over q1-q8.
func probeOptimize(r *result, g *graph.Graph, opts huge.Options) {
	stats := plan.ComputeStats(g)
	cfg := plan.Config{NumMachines: max(opts.Machines, 1), GraphEdges: float64(g.NumEdges()), Card: plan.MomentEstimator(stats)}
	var us []float64
	for _, q := range query.Catalog() {
		us = append(us, timeMedian(r, 3, func() { sink += len(plan.Optimize(q, cfg).Name) })/1e3)
	}
	r.set("plan.optimize_us", mean(us), len(us))
}

// probeIntersect times the pairwise count kernel over sampled adjacency
// pairs: ns per operand element. adaptive selects IntersectCountAdaptive
// with the operands' hub bitsets attached.
func probeIntersect(r *result, name string, g *graph.Graph, pairs [][2]graph.VertexID, adaptive bool) {
	var elems int
	for _, p := range pairs {
		elems += g.Degree(p[0]) + g.Degree(p[1])
	}
	var scratch graph.IntersectScratch
	ns := timeMedian(r, 3, func() {
		for _, p := range pairs {
			a, b := g.Neighbors(p[0]), g.Neighbors(p[1])
			if adaptive {
				sets := []graph.NbrList{{List: a, Bits: g.HubBitset(p[0])}, {List: b, Bits: g.HubBitset(p[1])}}
				sink += graph.IntersectCountAdaptive(sets, &scratch)
			} else {
				sink += graph.IntersectCount(a, b)
			}
		}
	})
	r.set(name, ratio(ns, float64(elems)), len(pairs))
}

// probeHubIndex: graph.hub_index_ms, building the hub-bitset index on a
// fresh post-Apply snapshot (every Apply discards the index).
func probeHubIndex(r *result, g *graph.Graph, seed int64) {
	ds := deltas(g, 5, seed)
	ms := make([]float64, 0, len(ds))
	r.ref.lap()
	for _, d := range ds {
		ng, _ := graph.Apply(g, d)
		t0 := time.Now()
		ng.EnsureHubIndex()
		ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
		sink += ng.NumHubs()
	}
	r.set("graph.hub_index_ms", median(ms)*r.ref.lap(), len(ms))
}

// probeNeighbors: Neighbors(v) on the overlay snapshot the Applies left
// behind against the same snapshot compacted.
func probeNeighbors(r *result, live *graph.Graph, n int, rng *rand.Rand) {
	vs := make([]graph.VertexID, n)
	for i := range vs {
		vs[i] = graph.VertexID(rng.Intn(live.NumVertices()))
	}
	walk := func(g *graph.Graph) float64 {
		return timeMedian(r, 3, func() {
			for _, v := range vs {
				sink += len(g.Neighbors(v))
			}
		}) / float64(n)
	}
	r.set("graph.neighbors_overlay_ns", walk(live), n)
	r.set("graph.neighbors_base_ns", walk(live.Compact()), n)
	r.note("neighbour probe: live snapshot carries %d overlay rows", live.OverlayRows())
}

// probeCache replays a seeded vertex stream through an LRBU cache sized at
// 30% of g, with the engine's protocol: per 4096-vertex batch, Seal the
// hits and Insert the misses (fetch stage), Get everything (intersect
// stage), Release.
func probeCache(r *result, g *graph.Graph, n int, rng *rand.Rand) {
	const batch = 4096
	c := cache.New(cache.LRBU, g.SizeBytes()*3/10)
	stream := make([]graph.VertexID, n)
	for i := range stream {
		// Endpoints of random edges: degree-proportional, like the remote
		// vertices an extend touches.
		u := graph.VertexID(rng.Intn(g.NumVertices()))
		if nb := g.Neighbors(u); len(nb) > 0 {
			u = nb[rng.Intn(len(nb))]
		}
		stream[i] = u
	}
	var getNs, insertNs int64
	var gets, inserts int
	r.ref.lap()
	for lo := 0; lo < n; lo += batch {
		vs := stream[lo:min(lo+batch, n)]
		for _, v := range vs {
			if c.Contains(v) {
				c.Seal(v)
				continue
			}
			nb := g.Neighbors(v)
			t0 := time.Now()
			c.Insert(v, nb)
			insertNs += time.Since(t0).Nanoseconds()
			inserts++
		}
		t0 := time.Now()
		for _, v := range vs {
			nb, _ := c.Get(v)
			sink += len(nb)
		}
		getNs += time.Since(t0).Nanoseconds()
		gets += len(vs)
		c.Release()
	}
	speed := r.ref.lap()
	r.set("cache.get_ns", ratio(float64(getNs), float64(gets))*speed, gets)
	r.set("cache.insert_ns", ratio(float64(insertNs), float64(inserts))*speed, inserts)
}

// probeJoinBuffer: a PUSH-JOIN input buffer's life — Add n seeded 4-wide
// rows, Finalize (sort by key), drain.
func probeJoinBuffer(r *result, n int, rng *rand.Rand) {
	rows := make([]graph.VertexID, 4*n)
	for i := range rows {
		rows[i] = graph.VertexID(rng.Intn(1 << 16))
	}
	ns := timeMedian(r, 3, func() {
		rel := engine.NewRelation(4, []int{1, 2}, 0, nil)
		for i := 0; i < n; i++ {
			_ = rel.Add(rows[4*i : 4*i+4]) // never spills: limitRows is 0
		}
		it, err := rel.Finalize()
		if err != nil {
			return
		}
		for {
			row, ok, err := it.Next()
			if !ok || err != nil {
				break
			}
			sink += int(row[0])
		}
		it.Close()
	})
	r.set("engine.join_buffer_ns_per_row", ns/float64(n), n)
}

// probeEngineFixed: engine.Run of the triangle dataflow, configured as a
// Limit run, on a 3-vertex path deployed like dep — no triangle to find and
// two edges to scan, so what is left is what every run pays before its
// first row: stage set-up, pools, seeding, goroutines. (A budget that is
// exhausted on entry would not do: Run then skips every stage.)
func probeEngineFixed(r *result, dep *deployment, reps int) {
	df, err := plan.Translate(dep.sys.PlanFor(huge.Triangle(), "wco"))
	if err != nil {
		r.op()
		r.fail("engine.fixed_us: %v", err)
		return
	}
	path := cluster.New(graph.FromEdges([][2]graph.VertexID{{0, 1}, {1, 2}}), clusterConfig(dep.opts))
	ctx := context.Background()
	us := timeMedian(r, reps, func() {
		cfg := engine.Config{QueueRows: 1, BatchRows: boundedBatchRows, Compress: true, Budget: engine.NewBudget(1)}
		n, _ := engine.Run(ctx, path.NewExec(), df, cfg)
		sink += int(n)
	}) / 1e3
	r.set("engine.fixed_us", us, reps)
}

// probeDeliver: the page request drained through Stream.Matches against the
// same request delivered to a no-op OnMatch callback, alternating so that
// both see the same machine; the median of the paired differences.
func probeDeliver(r *result, dep *deployment, reps int) {
	ctx := context.Background()
	tri := huge.Triangle()
	diff := make([]float64, reps)
	r.ref.lap()
	for i := range diff {
		t0 := time.Now()
		for m := range dep.sys.Exec(ctx, tri, huge.Limit(pageK)).Matches() {
			sink += len(m)
		}
		t1 := time.Now()
		res, _ := dep.sys.Exec(ctx, tri, huge.Limit(pageK), huge.OnMatch(func([]huge.VertexID) {})).Wait()
		sink += int(res.Count)
		diff[i] = float64(t1.Sub(t0)-time.Since(t1)) / pageK
	}
	r.set("huge.deliver_ns_per_match", median(diff)*r.ref.lap(), reps)
}

// probeStore measures the store layer on its own: appends with and without
// fsync, and recovery and time travel on the window's last crash image.
func probeStore(r *result, as *applySetup, w *applyWindow, outDir string) {
	data := store.SnapshotData{CSR: as.g0.Export(), Stats: plan.ComputeStats(as.g0)}
	const appends = 200
	dir, err := os.MkdirTemp(outDir, "durable-probe-")
	if err != nil {
		r.op()
		r.fail("%v", err)
		return
	}
	defer os.RemoveAll(dir)
	st, err := store.Create(dir, data, store.Options{NoSync: true, CompactEvery: -1})
	if err != nil {
		r.op()
		r.fail("store probe: %v", err)
		return
	}
	us := make([]float64, 0, appends)
	r.ref.lap()
	for i := 0; i < appends && i < len(as.deltas); i++ {
		t0 := time.Now()
		err := st.Append(uint64(i+1), as.deltas[i])
		us = append(us, float64(time.Since(t0).Nanoseconds())/1e3)
		if err != nil {
			r.op()
			r.fail("store probe append: %v", err)
			break
		}
	}
	speed := r.ref.lap()
	st.Close()
	r.set("store.append_nosync_us", median(us)*speed, len(us))

	_, snapBytes, walBytes := dirBytes(as.storeDir())
	r.set("store.snapshot_mb", float64(snapBytes)/(1<<20), 1)
	r.set("store.wal_bytes_per_update", float64(walBytes)/float64(as.sys.Epoch()*edgesPerDelta), int(as.sys.Epoch()))

	if w.lastImage == "" {
		r.op()
		r.fail("no crash image was taken in the window")
		return
	}
	tr := newTracer()
	var recoverMs []float64
	r.ref.lap()
	for i := 0; i < 3; i++ {
		rec, err := replayOpen(tr, i+1, w.lastImage, as.opts)
		tr.setSpeed(i+1, i+1, r.ref.lap())
		r.op()
		if err != nil {
			r.fail("replayOpen: %v", err)
			return
		}
		r.check(rec.Epoch == w.lastImageEpoch, "store recovery landed on epoch %d, image was taken at %d", rec.Epoch, w.lastImageEpoch)
	}
	d := tr.durations()
	for i := range d["store.open"] {
		recoverMs = append(recoverMs, (d["store.open"][i]+d["store.recover"][i])/1e3)
	}
	r.set("store.recover_ms", median(recoverMs), len(recoverMs))
	r.set("store.replay_records", float64(w.lastImageEpoch-w.lastImageBase), 1)
	for _, name := range []string{"open", "store.open", "store.recover", "cluster.new", "plan.rewarm"} {
		r.note("Open replay: %-16s %8.2f ms (median of %d)", name, median(d[name])/1e3, len(d[name]))
	}

	ist, err := store.Open(w.lastImage, store.Options{CompactEvery: -1})
	if err != nil {
		r.op()
		r.fail("store probe open: %v", err)
		return
	}
	defer ist.Close()
	target := w.lastImageEpoch - min(100, w.lastImageEpoch-w.lastImageBase)
	ms := timeMedian(r, 3, func() {
		rec, err := ist.MaterializeAt(target)
		if err == nil {
			sink += int(rec.Epoch)
		}
	}) / 1e6
	r.set("store.materialize_at_ms", ms, 3)
}
