package main

// The two write-path workloads: churn (in-memory System, 8 standing
// queries) and durable (persistent System in a temporary store directory,
// crash images reopened). Both apply the same seeded stream of 4-edge
// insert/delete deltas from one client.

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/huge"
	"repro/internal/graph"
	"repro/internal/store"
)

type applySetup struct {
	workload string
	opts     huge.Options
	g0       *graph.Graph // the generated graph, before any delta
	sys      *huge.System
	dir      string // durable: the store directory
	deltas   []huge.Delta
	next     int // index of the next delta to apply

	// churn: the standing queries, and the counts the driver maintains from
	// their events (pattern index -> count; valid once based).
	subs    []*huge.Subscription
	subPat  []int
	pats    []*huge.Query
	count   []int64
	lastNet map[int]int64 // pattern -> net match delta of the latest epoch
}

// applyOptions are the deployment options of both Apply workloads; the
// durable one runs the default PersistConfig unless the scale overrides the
// compaction interval.
func applyOptions(sz sizes) huge.Options {
	opts := huge.Options{Machines: 1, Workers: 2}
	if sz.compactEvery != 0 {
		opts.Persist = &huge.PersistConfig{CompactEvery: sz.compactEvery}
	}
	return opts
}

// compactInterval is how many Applies separate two store compactions.
func (sz sizes) compactInterval() uint64 {
	if sz.compactEvery != 0 {
		return uint64(sz.compactEvery)
	}
	return store.DefaultCompactEvery
}

// setupApply generates the graph and the update stream (primeOps + ops
// deltas), constructs the System (NewSystem + 8 Subscribe, or Create in a
// fresh store directory) and primes it with primeOps Applies.
func setupApply(workload string, sz sizes, seed int64, ops int, outDir string, withSubs bool) (*applySetup, error) {
	as := &applySetup{workload: workload, opts: applyOptions(sz), lastNet: map[int]int64{}}
	mult := 2
	if workload == "durable" {
		mult = 4
	}
	as.g0 = sz.dataset("LJ", mult*sz.ljScale, false)
	as.deltas = deltas(as.g0, sz.primeOps+ops, seed)
	if workload == "durable" {
		dir, err := os.MkdirTemp(outDir, "durable-store-")
		if err != nil {
			return nil, err
		}
		as.dir = dir
		sys, err := huge.Create(filepath.Join(dir, "store"), as.g0, as.opts)
		if err != nil {
			return as, err
		}
		as.sys = sys
	} else {
		as.sys = huge.NewSystem(as.g0, as.opts)
		as.pats = []*huge.Query{huge.Triangle(), huge.Q1(), huge.Q2(), huge.Q3()}
		as.count = make([]int64, len(as.pats))
		if withSubs {
			for i := 0; i < 8; i++ {
				sub, err := as.sys.Subscribe(as.pats[i%len(as.pats)])
				if err != nil {
					return as, err
				}
				as.subs = append(as.subs, sub)
				as.subPat = append(as.subPat, i%len(as.pats))
			}
		}
	}
	for i := 0; i < sz.primeOps && as.next < len(as.deltas); i++ {
		as.apply()
	}
	return as, nil
}

// teardown closes the System and removes the store directory.
func (as *applySetup) teardown() {
	if as == nil {
		return
	}
	for _, sub := range as.subs {
		sub.Close()
	}
	if as.sys != nil {
		as.sys.Close()
	}
	if as.dir != "" {
		os.RemoveAll(as.dir)
	}
}

func (as *applySetup) storeDir() string { return filepath.Join(as.dir, "store") }

// apply issues the next delta, then drains every subscription without
// blocking, folding the events of the first subscriber of each pattern
// into the maintained counts. It returns the Apply's duration and epoch.
func (as *applySetup) apply() (time.Duration, uint64) {
	d := as.deltas[as.next]
	as.next++
	t0 := time.Now()
	epoch := as.sys.Apply(d)
	dt := time.Since(t0)
	clear(as.lastNet)
	for i, sub := range as.subs {
		for drained := false; !drained; {
			select {
			case ev, ok := <-sub.C():
				if !ok {
					drained = true
					break
				}
				if i < len(as.pats) { // subscribers 0..3 are the first of their pattern
					net := int64(len(ev.New)) - int64(len(ev.Dead))
					as.count[as.subPat[i]] += net
					if ev.Epoch == epoch {
						as.lastNet[as.subPat[i]] = net
					}
				}
			default:
				drained = true
			}
		}
	}
	return dt, epoch
}

// fullCount runs a full CountOnly of q on the live System.
func (as *applySetup) fullCount(ctx context.Context, q *huge.Query) (outcome, time.Duration, error) {
	rq := &request{class: q.Name(), dep: &deployment{sys: as.sys, opts: as.opts}, q: q, limit: -1}
	t0 := time.Now()
	o, err := systemExec(ctx, rq)
	return o, time.Since(t0), err
}

type applyWindow struct {
	rounds              int
	roundS              series // per round: the summed time of its timed operations, s
	applyS              series // per round: the summed time of its Applies alone, s
	p50, p95            series // per round, ms
	recount, open, asof series // per operation, ms
	peak                []float64
	stall               []float64 // ms: Applies that crossed a compaction
	ops                 int
	allocKB             float64
	tally               tally
	compactions         int // overlay -> CSR compactions seen (churn)
	lastImage           string
	lastImageEpoch      uint64
	lastImageBase       uint64
	images              int
}

// roundReads is a round's interleaved reads as measured, ms; they join the
// window's series with the round's machine speed once it is known.
type roundReads struct {
	recount, open, asof []float64
}

// runApplies issues rounds rounds of roundOps Applies, with a reference lap
// around every round. The timed operations are the Applies and the
// interleaved reads (Delta counts and full recounts on churn; Open and AsOf
// on durable); draining events, copying crash images and the oracle's own
// counts are not timed.
func runApplies(r *result, as *applySetup, sz sizes, roundOps, rounds int, imgRoot string) *applyWindow {
	ctx := context.Background()
	w := &applyWindow{}
	alloc0 := totalAlloc()
	q1Delta := huge.Q1().Delta()
	prevOverlay := as.sys.Graph().OverlayRows()
	r.ref.lap()
	for ; w.rounds < rounds && as.next+roundOps <= len(as.deltas); w.rounds++ {
		var lat []float64
		var reads roundReads
		var roundTally tally
		var busy time.Duration
		imaged := false
		for i := 1; i <= roundOps; i++ {
			r.op()
			dt, epoch := as.apply()
			busy += dt
			us := float64(dt.Nanoseconds()) / 1e3
			lat = append(lat, us)
			if as.dir != "" && epoch%sz.compactInterval() == 0 {
				w.stall = append(w.stall, us/1e3)
			}
			rows := as.sys.Graph().OverlayRows()
			if rows < prevOverlay {
				w.compactions++
			}
			prevOverlay = rows
			if len(as.subs) > 0 && i%sz.deltaEvery == 0 {
				r.op()
				t0 := time.Now()
				res, err := as.sys.Exec(ctx, q1Delta, huge.CountOnly()).Wait()
				wall := time.Since(t0)
				busy += wall
				if err != nil {
					r.fail("Q1().Delta() at epoch %d: %v", epoch, err)
				} else {
					roundTally.add(outcome{count: res.Count, metrics: res.Metrics, engineNs: res.Elapsed.Nanoseconds()}, wall, workersOf(as.opts))
					r.check(res.Delta == as.lastNet[1], "epoch %d: Q1().Delta() reports %+d, the q1 subscription's events net %+d", epoch, res.Delta, as.lastNet[1])
				}
			}
			if len(as.subs) > 0 && i%sz.recountEach == 0 {
				r.op()
				o, wall, err := as.fullCount(ctx, as.pats[0])
				busy += wall
				if err != nil {
					r.fail("triangle recount at epoch %d: %v", epoch, err)
				} else {
					reads.recount = append(reads.recount, float64(wall.Nanoseconds())/1e6)
					roundTally.add(o, wall, workersOf(as.opts))
					r.check(int64(o.count) == as.count[0], "epoch %d: %d triangles recounted, %d maintained from subscription events", epoch, o.count, as.count[0])
				}
			}
			if as.dir != "" && !imaged && epoch%sz.compactInterval() == uint64(sz.imageAt) && epoch > uint64(sz.asofBack) {
				imaged = true
				busy += as.crashImage(ctx, r, w, &reads, &roundTally, sz, epoch, imgRoot)
			}
		}
		speed := r.ref.lap()
		w.roundS.add(busy.Seconds(), speed)
		w.applyS.add(sum(lat)/1e6, speed)
		w.p50.add(quantile(lat, 0.5)/1e3, speed)
		w.p95.add(quantile(lat, 0.95)/1e3, speed)
		for _, ms := range reads.recount {
			w.recount.add(ms, speed)
		}
		for _, ms := range reads.open {
			w.open.add(ms, speed)
		}
		for _, ms := range reads.asof {
			w.asof.add(ms, speed)
		}
		if roundTally.peak > 0 {
			w.peak = append(w.peak, float64(roundTally.peak)/1e6)
		}
		w.tally.merge(roundTally)
		w.ops += roundOps
	}
	w.allocKB = float64(totalAlloc()-alloc0) / 1024
	return w
}

// crashImage copies the newest snapshot and the log after it — what a
// crash at this instant would leave, since every Apply was fsynced and
// nothing is closed — reopens the copy opensPerImg times and time-travels
// on the live System. It returns the time of the timed operations.
func (as *applySetup) crashImage(ctx context.Context, r *result, w *applyWindow, reads *roundReads, t *tally, sz sizes, epoch uint64, imgRoot string) time.Duration {
	var timed time.Duration
	img := filepath.Join(imgRoot, fmt.Sprintf("image-%d", epoch))
	base, err := copyCrashImage(as.storeDir(), img)
	r.op()
	if err != nil {
		r.fail("crash image at epoch %d: %v", epoch, err)
		return 0
	}
	if w.lastImage != "" {
		os.RemoveAll(w.lastImage)
	}
	w.lastImage, w.lastImageEpoch, w.lastImageBase = img, epoch, base
	w.images++
	liveFP := as.sys.StatsFingerprint()

	// Reopening with automatic compaction off leaves the image as found, so
	// every Open replays the same epoch-base log records.
	opts := as.opts
	opts.Persist = &huge.PersistConfig{CompactEvery: -1, CompactBytes: -1}
	for i := 0; i < sz.opensPerImg; i++ {
		r.op()
		t0 := time.Now()
		s2, err := huge.Open(img, opts)
		dt := time.Since(t0)
		timed += dt
		if err != nil {
			r.fail("Open of crash image at epoch %d: %v", epoch, err)
			continue
		}
		reads.open = append(reads.open, float64(dt.Nanoseconds())/1e6)
		r.check(s2.Epoch() == epoch, "reopened image is at epoch %d, live System at %d", s2.Epoch(), epoch)
		r.check(s2.StatsFingerprint() == liveFP, "reopened image has stats fingerprint %x, live System %x", s2.StatsFingerprint(), liveFP)
		if i == 0 && w.images <= 3 {
			// On the run's first images, a full triangle count on the live
			// System (the workload's read, and its peak_mtuples sample); on
			// the very first, the reopened image must count the same.
			r.op()
			live, wall, err := as.fullCount(ctx, huge.Triangle())
			if err != nil {
				r.fail("triangle count at epoch %d: %v", epoch, err)
			} else {
				t.add(live, wall, workersOf(as.opts))
				if w.images == 1 {
					re, err := s2.Exec(ctx, huge.Triangle(), huge.CountOnly()).Wait()
					r.check(err == nil && live.count == re.Count, "epoch %d: live System counts %d triangles, reopened image %d (%v)", epoch, live.count, re.Count, err)
				}
			}
		}
		if err := s2.Close(); err != nil {
			r.fail("closing reopened image: %v", err)
		}
	}

	r.op()
	t0 := time.Now()
	back := epoch - uint64(sz.asofBack)
	sess, err := as.sys.AsOf(back)
	dt := time.Since(t0)
	timed += dt
	if err != nil {
		r.fail("AsOf(%d): %v", back, err)
	} else {
		reads.asof = append(reads.asof, float64(dt.Nanoseconds())/1e6)
		r.check(sess.Epoch() == back, "AsOf(%d) pinned epoch %d", back, sess.Epoch())
	}
	return timed
}

// epochOf parses the epoch out of a store file name (snap-<16 hex>.snap,
// wal-<16 hex>.wal).
func epochOf(name, prefix, suffix string) (uint64, bool) {
	hex, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	hex, ok = strings.CutSuffix(hex, suffix)
	if !ok || len(hex) != 16 {
		return 0, false
	}
	e, err := strconv.ParseUint(hex, 16, 64)
	return e, err == nil
}

// copyCrashImage copies the newest snapshot of src and every log segment
// at or after it into dst, and returns that snapshot's epoch.
func copyCrashImage(src, dst string) (base uint64, err error) {
	ents, err := os.ReadDir(src)
	if err != nil {
		return 0, err
	}
	found := false
	for _, e := range ents {
		if ep, ok := epochOf(e.Name(), "snap-", ".snap"); ok && (!found || ep > base) {
			base, found = ep, true
		}
	}
	if !found {
		return 0, fmt.Errorf("no snapshot in %s", src)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return 0, err
	}
	for _, e := range ents {
		snap, isSnap := epochOf(e.Name(), "snap-", ".snap")
		wal, isWal := epochOf(e.Name(), "wal-", ".wal")
		if (isSnap && snap == base) || (isWal && wal >= base) {
			if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
				return 0, err
			}
		}
	}
	return base, nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// dirBytes sums the sizes of dir's files by extension.
func dirBytes(dir string) (total, snapNewest, wal int64) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, 0, 0
	}
	var newest uint64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			continue
		}
		total += info.Size()
		if ep, ok := epochOf(e.Name(), "snap-", ".snap"); ok && ep >= newest {
			newest, snapNewest = ep, info.Size()
		}
		if _, ok := epochOf(e.Name(), "wal-", ".wal"); ok {
			wal += info.Size()
		}
	}
	return total, snapNewest, wal
}

func runApply(r *result, workload string, sz sizes, seed int64, seconds float64, trace bool, outDir string) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	imgRoot, err := os.MkdirTemp(outDir, workload+"-images-")
	if err != nil {
		r.op()
		r.fail("%v", err)
		return
	}
	defer os.RemoveAll(imgRoot)

	roundOps, rounds := sz.applyOps, sz.rounds(workload, seconds)
	if trace {
		rounds = (rounds + 3) / 4
	}
	var as *applySetup
	defer func() { as.teardown() }()
	setups := r.timeSetups(sz.setups(trace), func() { as.teardown(); as = nil }, func() bool {
		as, err = setupApply(workload, sz, seed, rounds*roundOps, outDir, true)
		return err == nil
	})
	if err != nil {
		r.op()
		r.fail("set-up: %v", err)
		return
	}
	primed := as.next

	// Base the maintained counts: triangles are recounted throughout, q1
	// once more when the run ends.
	if workload == "churn" {
		for _, pi := range []int{0, 1} {
			o, _, err := as.fullCount(ctx, as.pats[pi])
			r.op()
			if err != nil {
				r.fail("base count of %s: %v", as.pats[pi].Name(), err)
				return
			}
			as.count[pi] = int64(o.count)
		}
	}
	finalChecks := func() {
		if workload != "churn" {
			return
		}
		o, _, err := as.fullCount(ctx, as.pats[1])
		r.op()
		if err != nil {
			r.fail("final q1 recount: %v", err)
			return
		}
		r.check(int64(o.count) == as.count[1], "final q1 recount %d, %d maintained from subscription events", o.count, as.count[1])
	}

	if !trace {
		w := runApplies(r, as, sz, roundOps, rounds, imgRoot)
		finalChecks()
		n := float64(roundOps)
		r.setRefMedian("setup_s", setups, len(setups.raw))
		r.setRef("ops_per_s", n/median(w.roundS.ref()), n/median(w.roundS.raw), w.ops, spreadOf(w.roundS.ref()))
		r.setRefMedian("pass_s", w.roundS, w.rounds)
		r.setRefMedian("op_p50_ms", w.p50, w.ops)
		r.setRefMedian("op_p95_ms", w.p95, w.ops)
		as.reportSpecific(r, w)
		if workload == "churn" {
			r.setRefMedian("aux_p50_ms", w.recount, len(w.recount.raw))
		} else {
			r.setRefMedian("aux_p50_ms", w.open, len(w.open.raw))
		}
		r.set("alloc_kb_per_op", w.allocKB/float64(w.ops), w.ops)
		r.set("peak_rss_mb", peakRSSMB(), 1)
		r.setSpread("peak_mtuples", slices.Max(w.peak), len(w.peak), spreadOf(w.peak))
		return
	}

	maint0 := as.sys.MaintenanceStats()
	h0, m0, _ := as.sys.PlanCacheStats()
	w := runApplies(r, as, sz, roundOps, rounds, imgRoot)
	h1, m1, _ := as.sys.PlanCacheStats()
	maint1 := as.sys.MaintenanceStats()
	finalChecks()
	as.reportSpecific(r, w)
	w.tally.report(r, w.rounds, w.ops)
	r.set("plan.cache_hit_ratio", ratio(float64(h1-h0), float64(h1-h0+m1-m0)), int(h1-h0+m1-m0))
	r.set("graph.overlay_rows", float64(as.sys.Graph().OverlayRows()), 1)
	r.note("overlay -> CSR compactions during the untraced window: %d", w.compactions)
	windowOps := as.next - primed
	// Medians and rates of the traced run's phases are compared in
	// reference-machine time: the machine drifts between phases.
	p50us := func(w *applyWindow) float64 { return median(w.p50.ref()) * 1e3 }
	opsPerS := func(w *applyWindow) float64 { return ratio(float64(w.ops), sum(w.applyS.ref())) }
	sysP50 := p50us(w)

	// The same deltas on a System without subscribers (churn): the Apply
	// path minus maintenance, and the replay's untraced comparator.
	bare, bareP50, bareOpsPerS := as, sysP50, opsPerS(w)
	if workload == "churn" {
		r.set("huge.shared_runs", float64(maint1.SharedRuns-maint0.SharedRuns), w.ops)
		r.set("huge.fanned_events", float64(maint1.FannedEvents-maint0.FannedEvents), w.ops)
		r.set("huge.shed_events", float64(maint1.ShedEvents-maint0.ShedEvents), w.ops)
		r.check(maint1.ShedEvents == maint0.ShedEvents, "%d subscription events were shed although the driver drains after every Apply", maint1.ShedEvents-maint0.ShedEvents)
		bare, err = setupApply(workload, sz, seed, windowOps, outDir, false)
		if err != nil {
			r.op()
			r.fail("set-up without subscribers: %v", err)
			return
		}
		defer bare.teardown()
		bw := runApplies(r, bare, sz, roundOps, w.rounds, imgRoot)
		bareP50, bareOpsPerS = p50us(bw), opsPerS(bw)
		r.set("huge.maintain_us", sysP50-bareP50, bw.ops)
	}

	// The step-by-step replay of the same deltas from the same graph.
	var st *store.Store
	if workload == "durable" {
		rdir, err := os.MkdirTemp(outDir, "durable-replay-")
		if err != nil {
			r.op()
			r.fail("%v", err)
			return
		}
		defer os.RemoveAll(rdir)
		st, err = store.Create(rdir, store.SnapshotData{CSR: as.g0.Export(), Stats: newApplyReplay(as.g0, as.opts, nil).stats}, store.Options{CompactEvery: sz.compactEvery})
		if err != nil {
			r.op()
			r.fail("replay store: %v", err)
			return
		}
		defer st.Close()
	}
	rep := newApplyReplay(as.g0, as.opts, st)
	tr := newTracer()
	var replayS float64 // the window's replayed Applies, reference-machine seconds
	for lo := 0; lo < primed+windowOps; {
		// Priming is replayed too, in one chunk whose spans are dropped;
		// then one chunk per round, a reference lap around each.
		hi, t := primed, newTracer()
		if lo >= primed {
			hi, t = min(lo+roundOps, primed+windowOps), tr
		}
		r.ref.lap()
		t0 := time.Now()
		for i := lo; i < hi; i++ {
			if err := rep.apply(t, i+1, as.deltas[i]); err != nil {
				r.op()
				r.fail("replay of Apply %d: %v", i+1, err)
				return
			}
		}
		dt := time.Since(t0).Seconds()
		speed := r.ref.lap()
		if lo >= primed {
			tr.setSpeed(lo+1, hi, speed)
			replayS += dt * speed
		}
		lo = hi
	}
	r.check(rep.stats.Fingerprint() == bare.sys.StatsFingerprint(), "replay ends with stats fingerprint %x, System with %x", rep.stats.Fingerprint(), bare.sys.StatsFingerprint())
	r.check(rep.g.NumEdges() == bare.sys.Graph().NumEdges() && rep.g.Epoch() == bare.sys.Epoch(), "replay ends at epoch %d with %d edges, System at %d with %d", rep.g.Epoch(), rep.g.NumEdges(), bare.sys.Epoch(), bare.sys.Graph().NumEdges())
	if err := tr.write(tracePath(outDir, workload)); err != nil {
		r.fail("writing trace: %v", err)
	}
	r.set("bench.trace_overhead", ratio(float64(windowOps)/replayS, bareOpsPerS), windowOps)
	d := tr.durations()
	parts := 0.0
	for _, span := range []string{"graph.apply", "plan.update_stats", "cluster.new"} {
		r.set(span+"_us", median(d[span]), len(d[span]))
		parts += median(d[span])
	}
	if workload == "durable" {
		r.set("store.append_us", median(d["store.append"]), len(d["store.append"]))
		parts += median(d["store.append"])
		compactMs := d["store.compact"]
		for i := range compactMs {
			compactMs[i] /= 1e3
		}
		r.set("store.compact_ms", median(compactMs), len(compactMs))
	}
	r.set("huge.apply_self_us", bareP50-parts, windowOps)
	r.note("Apply decomposition: p50 %.1f us = layers %.1f us + huge.apply_self_us %.1f us (+ huge.maintain_us on churn)", bareP50, parts, bareP50-parts)
	tr.noteSelfTimes(r)

	probeSystem(r, as.g0, as.opts)
	if workload == "churn" {
		probeNeighbors(r, as.sys.Graph(), sz.probeN, rng)
		return
	}
	probeOptimize(r, as.g0, as.opts)
	probeStore(r, as, w, outDir)
}

// reportSpecific emits the workload's own end-to-end numbers.
func (as *applySetup) reportSpecific(r *result, w *applyWindow) {
	if as.workload == "churn" {
		r.setRefMedian("query_after_apply_ms", w.recount, len(w.recount.raw))
		return
	}
	r.setRefMedian("open_ms", w.open, len(w.open.raw))
	total, _, _ := dirBytes(as.storeDir())
	updates := as.sys.Epoch() * edgesPerDelta
	r.set("disk_kb_per_update", float64(total)/1024/float64(updates), int(updates))
	r.note("store directory: %d bytes after %d Applies of %d edge updates (fsync on every Apply, full history kept)", total, as.sys.Epoch(), edgesPerDelta)
	r.set("store.compact_stall_ms", median(w.stall), len(w.stall))
	r.set("huge.asof_ms", median(w.asof.raw), len(w.asof.raw))
}
