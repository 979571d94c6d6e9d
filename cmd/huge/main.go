// Command huge runs a single subgraph-enumeration query on a dataset with
// a chosen plan, printing the count, timings and communication metrics.
// Every run goes through the unified Exec API. With -k n the engine stops
// after n matches (top-k early termination — the match budget halts scans
// and extends engine-side) and prints them. With -repeat it replays the
// query through one serving session, demonstrating the fingerprint-keyed
// plan cache. With -updates it replays an insert/delete stream (hugegen
// -updates emits one) in batches through System.Apply, maintaining the
// match count with delta-mode enumeration and cross-checking the running
// total against a final full re-count. Adding -subscribe n registers n
// standing subscriptions on the query before the replay: every Apply then
// ALSO serves all n subscribers from one shared delta run, and each epoch's
// delivered event is cross-checked against the session's own delta counts.
//
// With -store dir the System is durable: if dir holds a store it is
// recovered via huge.Open (no edge list re-read), otherwise one is rooted
// via huge.Create from the chosen dataset. Updates replayed with -updates
// are logged through the store's epoch log, and the replay additionally
// cross-checks time travel: AsOf at sampled epochs must reproduce the
// counts maintained live. -asof n executes the query against the
// historical graph at epoch n.
//
// Usage:
//
//	huge -dataset LJ -scale 1 -query q1 -machines 4 -workers 2 -plan optimal
//	huge -input edges.txt -query triangle
//	huge -query q1 -repeat 5           # warm runs reuse the cached plan
//	huge -query q1 -k 10               # first 10 squares, engine-side stop
//	huge -labels 16 -query triangle -vlabels 2,2,2    # labelled matching
//	huge -labels 16 -pattern "(a:1)-(b:2), (b:2)-(c:1), (c:1)-(a:1)"
//	huge -elabels 8 -pattern "(a)-[2]-(b), (b)-[2]-(c), (c)-[2]-(a)"  # edge labels
//	huge -input go.txt -query triangle -updates go.txt.updates -update-batch 200
//	huge -input go.txt -query triangle -updates go.txt.updates -subscribe 1000
//	huge -labels 16 -query triangle -group vlabel:0 -topgroups 10 -hist 8
//	huge -store go.store -query triangle                    # Create or Open
//	huge -store go.store -query triangle -updates go.txt.updates  # logged replay
//	huge -store go.store -query triangle -asof 3            # time travel
//
// With -group the run is an engine-side GROUP BY: matches are counted per
// key (a data vertex, a vertex label, or an edge label) inside the
// compressed counting path, never materialised, and the per-group table is
// printed after the count. -topgroups keeps the k best groups, -hist adds
// a log2 histogram of the group counts.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/huge"
	"repro/internal/exp"
)

// planFamilies names the plan families -plan accepts: the two
// System.PlanFor builds ("optimal", "wco"), then the paper's baselines,
// which exp.FamilyPlan builds.
const planFamilies = "optimal wco seed rads benu emptyheaded graphflow"

func main() {
	var (
		dataset  = flag.String("dataset", "LJ", "synthetic dataset stand-in: GO LJ OR UK EU FS CW")
		scale    = flag.Int("scale", 1, "dataset scale multiplier")
		input    = flag.String("input", "", "edge-list file, optionally with \"v <id> <label>\" lines (overrides -dataset)")
		queryArg = flag.String("query", "q1", "query: q1..q8 or triangle")
		pattern  = flag.String("pattern", "", "Cypher-flavoured pattern, e.g. \"(a:1)-(b:2), (b:2)-(c)\" (overrides -query)")
		vlabels  = flag.String("vlabels", "", "comma-separated per-vertex label constraints for -query (* = any), e.g. 2,*,2,*")
		labels   = flag.Int("labels", 0, "attach N Zipf-distributed vertex labels to the generated dataset (0 = unlabelled)")
		elabels  = flag.Int("elabels", 0, "attach N Zipf-distributed edge labels to the generated dataset (0 = unlabelled)")
		planArg  = flag.String("plan", "optimal", "plan: "+planFamilies)
		machines = flag.Int("machines", 4, "simulated machines")
		workers  = flag.Int("workers", 2, "workers per machine")
		queue    = flag.Int64("queue", 0, "scheduler queue capacity in rows (0=default adaptive, 1=DFS, -1=BFS)")
		topk     = flag.Int("k", 0, "stop after k matches (engine-side early termination) and print them; 0 = count all")
		repeat   = flag.Int("repeat", 1, "run the query N times through one session (plan cached after run 1)")
		showPlan = flag.Bool("show-plan", false, "print the execution plan before running")
		groupArg = flag.String("group", "", "engine-side GROUP BY key: v:<qv> (data vertex), vlabel:<qv> (vertex label) or elabel:<a>,<b> (edge label)")
		histArg  = flag.Int("hist", 0, "with -group: also print a log2 histogram of the group counts over N buckets")
		topgArg  = flag.Int("topgroups", 0, "with -group: keep only the k highest-counted groups")
		updates  = flag.String("updates", "", "replay an insert/delete stream file (\"+ u v\" / \"- u v\" lines) with delta-mode maintenance")
		batch    = flag.Int("update-batch", 100, "operations applied per delta batch during -updates replay")
		subCount = flag.Int("subscribe", 0, "register N standing subscriptions served from one shared delta run per -updates batch")
		storeDir = flag.String("store", "", "persistent store directory: recovered with huge.Open if it exists (ignoring -input/-dataset), created with huge.Create otherwise; -updates batches are logged durably")
		asofArg  = flag.Int64("asof", -1, "with -store: run the query against the historical snapshot at this epoch (time travel); -1 = current")
	)
	flag.Parse()

	var q *huge.Query
	if *pattern != "" {
		if *vlabels != "" {
			fmt.Fprintln(os.Stderr, "-vlabels applies to -query only; put labels in the pattern instead, e.g. (a:3)-(b:3)")
			os.Exit(2)
		}
		var err error
		q, _, err = huge.ParsePattern("pattern", *pattern)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		q = huge.QueryByName(*queryArg)
		if q == nil {
			fmt.Fprintf(os.Stderr, "unknown query %q\n", *queryArg)
			os.Exit(2)
		}
		if *vlabels != "" {
			ls, err := parseVertexLabels(*vlabels, q.NumVertices())
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			q = q.WithVertexLabels(ls)
		}
	}
	sysOpts := huge.Options{
		Machines: *machines, Workers: *workers, QueueRows: *queue,
	}
	var sys *huge.System
	var g *huge.Graph
	if *storeDir != "" && huge.StoreExists(*storeDir) {
		// Cold start from disk: the snapshot + epoch log reconstruct the
		// graph, its exact statistics, and the warm plan cache — the edge
		// list (-input/-dataset) is not read at all.
		var err error
		sys, err = huge.Open(*storeDir, sysOpts)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		g = sys.Graph()
		fmt.Printf("store: recovered %s at epoch %d (edge list not read)\n", *storeDir, sys.Epoch())
	} else {
		if *input != "" {
			f, err := os.Open(*input)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			g, err = huge.LoadLabeledEdgeList(f)
			f.Close()
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		} else if *elabels > 0 {
			g = huge.GenerateEdgeLabeled(*dataset, *scale, *elabels, *labels)
		} else if *labels > 0 {
			g = huge.GenerateLabeled(*dataset, *scale, *labels)
		} else {
			g = huge.Generate(*dataset, *scale)
		}
		if *storeDir != "" {
			var err error
			sys, err = huge.Create(*storeDir, g, sysOpts)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("store: created %s at epoch %d\n", *storeDir, sys.Epoch())
		} else {
			sys = huge.NewSystem(g, sysOpts)
		}
	}
	defer sys.Close()
	fmt.Printf("graph: %d vertices, %d edges, max degree %d, labels %d, edge labels %d\n",
		g.NumVertices(), g.NumEdges(), g.MaxDegree(), g.NumLabels(), g.NumEdgeLabels())

	sess := sys.NewSession()
	if *asofArg >= 0 {
		if *storeDir == "" {
			fmt.Fprintln(os.Stderr, "-asof requires -store (time travel reads the epoch log)")
			os.Exit(2)
		}
		if *updates != "" || *subCount > 0 {
			fmt.Fprintln(os.Stderr, "-asof is a read-only historical view; drop -updates/-subscribe")
			os.Exit(2)
		}
		var err error
		sess, err = sys.AsOf(uint64(*asofArg))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		hg := sess.Graph()
		fmt.Printf("time travel: session pinned to epoch %d (%d vertices, %d edges)\n",
			*asofArg, hg.NumVertices(), hg.NumEdges())
	}
	ctx := context.Background()
	var p *huge.Plan
	if *planArg != "optimal" {
		if *planArg == "wco" {
			p = sys.PlanFor(q, "wco")
		} else {
			var err error
			if p, err = exp.FamilyPlan(sess.Graph(), q, *planArg, *machines); err != nil {
				fmt.Fprintf(os.Stderr, "unknown plan %q (want one of: %s)\n", *planArg, planFamilies)
				os.Exit(2)
			}
		}
		if *showPlan {
			fmt.Print(p.String())
		}
	} else if *showPlan {
		// Plan is memoised, so the runs below reuse this exact plan — and
		// their "(cached plan)" annotation is accurate: planning was paid
		// here, at the user's request, before the first run. A bounded
		// (-k) run executes the barrier-free wco family instead of the
		// cost-optimal plan, so show that one.
		if *topk > 0 {
			fmt.Print(sys.PlanFor(q, "wco").String())
		} else {
			fmt.Print(sys.Plan(q).String())
		}
	}
	if *repeat < 1 {
		*repeat = 1
	}
	if *topk < 0 {
		fmt.Fprintln(os.Stderr, "-k must be >= 0")
		os.Exit(2)
	}
	if *topk > 0 && *updates != "" {
		// Delta replay maintains the FULL match count from the first run's
		// result; a truncated top-k count would seed it wrong by design.
		fmt.Fprintln(os.Stderr, "-k cannot be combined with -updates (replay maintains the full count)")
		os.Exit(2)
	}
	var groupKey huge.GroupKey
	if *groupArg != "" {
		var err error
		groupKey, err = parseGroupKey(*groupArg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if *topk > 0 {
			fmt.Fprintln(os.Stderr, "-k streams matches; a grouped run never materialises them (drop one)")
			os.Exit(2)
		}
		if *updates != "" {
			fmt.Fprintln(os.Stderr, "-group cannot be combined with -updates (replay maintains the ungrouped count)")
			os.Exit(2)
		}
	} else if *histArg > 0 || *topgArg > 0 {
		fmt.Fprintln(os.Stderr, "-hist and -topgroups require -group")
		os.Exit(2)
	}
	var res huge.Result
	var err error
	for i := 0; i < *repeat; i++ {
		var opts []huge.Option
		if p != nil {
			opts = append(opts, huge.WithPlan(p))
		}
		switch {
		case *topk > 0:
			// Top-k: stream the first k matches off the engine and stop it.
			st := sess.Exec(ctx, q, append(opts, huge.Limit(*topk))...)
			for m := range st.Matches() {
				fmt.Printf("  match %v\n", m)
			}
			res, err = st.Wait()
		case *groupArg != "":
			// Grouped runs are counting runs; the group table rides Result.
			opts = append(opts, huge.GroupBy(groupKey))
			if *histArg > 0 {
				opts = append(opts, huge.Histogram(*histArg))
			}
			if *topgArg > 0 {
				opts = append(opts, huge.TopGroups(*topgArg))
			}
			res, err = sess.Exec(ctx, q, opts...).Wait()
		default:
			res, err = sess.Exec(ctx, q, append(opts, huge.CountOnly())...).Wait()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		cachedNote := ""
		if res.PlanCached {
			cachedNote = " (cached plan)"
		}
		if *topk > 0 {
			cachedNote += fmt.Sprintf(" (stopped at k=%d)", *topk)
		}
		fmt.Printf("query %s: %d matches in %v%s\n", q.Name(), res.Count, res.Elapsed, cachedNote)
	}
	if *groupArg != "" {
		printGroups(res, *groupArg, *topgArg, *histArg)
	}
	if *subCount > 0 && *updates == "" {
		fmt.Fprintln(os.Stderr, "-subscribe requires -updates (subscriptions are served during replay)")
		os.Exit(2)
	}
	if *updates != "" {
		if err := replayUpdates(ctx, sys, sess, q, *updates, *batch, res.Count, *subCount, *storeDir != ""); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	m := res.Metrics
	fmt.Printf("comm: %.2fMB (pulled %.2fMB pushed %.2fMB stolen %.2fMB) rpcs %d hitRate %.1f%%\n",
		float64(m.BytesPulled+m.BytesPushed+m.BytesStolen)/(1<<20),
		float64(m.BytesPulled)/(1<<20), float64(m.BytesPushed)/(1<<20), float64(m.BytesStolen)/(1<<20), m.RPCCalls,
		100*float64(m.CacheHits)/float64(maxU(1, m.CacheHits+m.CacheMisses)))
	fmt.Printf("memory: peak %d queued tuples; steals intra=%d inter=%d\n",
		m.PeakTuples, m.StealsIntra, m.StealsInter)
	hits, misses, size := sys.PlanCacheStats()
	fmt.Printf("plan cache: %d hits, %d misses, %d plans\n", hits, misses, size)
	st := sess.Stats()
	fmt.Printf("session: %d queries, %d results, %d served with cached plans\n",
		st.Queries, st.Results, st.CachedPlans)
}

// replayUpdates applies the stream in batches, maintaining the match
// count via delta-mode enumeration and verifying the running total against
// a full re-enumeration of the final snapshot. With subCount > 0 it also
// registers that many standing subscriptions on q and cross-checks each
// epoch's delivered event against the session's own delta counts — all
// subCount subscribers ride ONE shared delta run per batch. On a
// store-backed System (storeBacked) every batch is also durably logged,
// and after replay the maintained per-epoch counts are cross-checked
// against time-travel sessions (System.AsOf) materialised from that log.
func replayUpdates(ctx context.Context, sys *huge.System, sess *huge.Session, q *huge.Query, path string, batchSize int, baseCount uint64, subCount int, storeBacked bool) error {
	ops, err := readUpdates(path)
	if err != nil {
		return err
	}
	if batchSize < 1 {
		batchSize = 1
	}
	var subs []*huge.Subscription
	for i := 0; i < subCount; i++ {
		// Buffer 1 suffices: maintenance runs synchronously inside Apply
		// and the loop below drains every subscriber each epoch.
		sub, err := sys.Subscribe(q, huge.SubBuffer(1))
		if err != nil {
			return err
		}
		subs = append(subs, sub)
		defer sub.Close()
	}
	if subCount > 0 {
		fmt.Printf("standing queries: %d subscribers over %d pattern group(s)\n",
			sys.Subscriptions(), sys.SubscriptionGroups())
	}
	running := int64(baseCount)
	dq := q.Delta()
	var epochs []uint64           // applied epochs, in order (store-backed only)
	counts := map[uint64]uint64{} // maintained match count after each epoch
	for lo := 0; lo < len(ops); lo += batchSize {
		hi := lo + batchSize
		if hi > len(ops) {
			hi = len(ops)
		}
		var d huge.Delta
		for _, op := range ops[lo:hi] {
			switch {
			case op.del:
				d.Delete = append(d.Delete, [2]huge.VertexID{op.u, op.v})
			case op.rel:
				d.Relabel = append(d.Relabel, huge.EdgeLabel{U: op.u, V: op.v, L: op.l})
			default:
				d.Insert = append(d.Insert, [2]huge.VertexID{op.u, op.v})
				d.InsertLabels = append(d.InsertLabels, op.l)
			}
		}
		epoch := sys.Apply(d)
		sess.Refresh()
		res, err := sess.Exec(ctx, dq, huge.CountOnly()).Wait()
		if err != nil {
			return err
		}
		running += res.Delta
		if storeBacked {
			epochs = append(epochs, epoch)
			counts[epoch] = uint64(running)
		}
		fmt.Printf("epoch %d: %d ops, delta %+d (new %d, dead %d) in %v -> %d matches\n",
			epoch, hi-lo, res.Delta, res.DeltaNew, res.DeltaDead, res.Elapsed, running)
		// Drain every subscriber. Maintenance is synchronous inside Apply,
		// so the epoch's event (delivered only when the pattern's delta is
		// non-empty) is already buffered — a non-blocking read is exact.
		for i, sub := range subs {
			var ev huge.Event
			var got bool
			select {
			case ev, got = <-sub.C():
			default:
			}
			if i > 0 {
				continue // all subscribers carry the same payload; check one, drain the rest
			}
			switch {
			case !got && res.DeltaNew+res.DeltaDead != 0:
				return fmt.Errorf("epoch %d: subscription delivered no event, session saw +%d/-%d",
					epoch, res.DeltaNew, res.DeltaDead)
			case got && (uint64(len(ev.New)) != res.DeltaNew || uint64(len(ev.Dead)) != res.DeltaDead):
				return fmt.Errorf("epoch %d: subscription event new=%d dead=%d, session saw new=%d dead=%d",
					epoch, len(ev.New), len(ev.Dead), res.DeltaNew, res.DeltaDead)
			case got:
				fmt.Printf("  subs: event new=%d dead=%d (matches session delta) fanned to %d subscribers\n",
					len(ev.New), len(ev.Dead), len(subs))
			}
		}
	}
	if subCount > 0 {
		ms := sys.MaintenanceStats()
		fmt.Printf("standing queries: %d shared runs served %d subscriber-events (%d re-runs avoided), shed %d\n",
			ms.SharedRuns, ms.FannedEvents, ms.DedupedRuns, ms.ShedEvents)
	}
	full, err := sess.Exec(ctx, q, huge.CountOnly()).Wait()
	if err != nil {
		return err
	}
	g := sys.Graph()
	fmt.Printf("final graph: %d vertices, %d edges (epoch %d)\n", g.NumVertices(), g.NumEdges(), g.Epoch())
	if uint64(running) != full.Count {
		return fmt.Errorf("delta maintenance diverged: maintained %d, full re-count %d", running, full.Count)
	}
	fmt.Printf("verified: maintained count %d == full re-count %d\n", running, full.Count)
	if storeBacked && len(epochs) > 0 {
		// Every batch above was durably logged before install; cross-check
		// the log by time-travelling to a sample of epochs (first, middle,
		// last) and re-counting against the maintained totals.
		sample := []uint64{epochs[0], epochs[len(epochs)/2], epochs[len(epochs)-1]}
		checked := map[uint64]bool{}
		for _, e := range sample {
			if checked[e] {
				continue
			}
			checked[e] = true
			hs, err := sys.AsOf(e)
			if err != nil {
				return fmt.Errorf("AsOf(%d): %w", e, err)
			}
			res, err := hs.Exec(ctx, q, huge.CountOnly()).Wait()
			if err != nil {
				return fmt.Errorf("AsOf(%d) exec: %w", e, err)
			}
			if res.Count != counts[e] {
				return fmt.Errorf("time travel diverged: AsOf(%d) count %d, maintained count was %d",
					e, res.Count, counts[e])
			}
			fmt.Printf("time travel verified: AsOf(%d) count %d == maintained count\n", e, res.Count)
		}
	}
	return nil
}

type updateOp struct {
	del, rel bool
	u, v     huge.VertexID
	l        huge.LabelID
}

// readUpdates parses an update-stream file: "+ u v" (or "+ u v l" for a
// labelled edge) inserts, "- u v" deletes, "~ u v l" relabels, '#'
// comments.
func readUpdates(path string) ([]updateOp, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var ops []updateOp
	sc := bufio.NewScanner(f)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		bad := func() ([]updateOp, error) {
			return nil, fmt.Errorf("%s:%d: want \"+ u v [l]\", \"- u v\" or \"~ u v l\", got %q", path, lineNo, line)
		}
		if len(fields) < 3 || len(fields) > 4 {
			return bad()
		}
		op := updateOp{del: fields[0] == "-", rel: fields[0] == "~"}
		switch {
		case fields[0] == "+" && len(fields) <= 4:
		case op.del && len(fields) == 3:
		case op.rel && len(fields) == 4:
		default:
			return bad()
		}
		u, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		v, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
		}
		op.u, op.v = huge.VertexID(u), huge.VertexID(v)
		if len(fields) == 4 {
			l, err := strconv.ParseUint(fields[3], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("%s:%d: %v", path, lineNo, err)
			}
			op.l = huge.LabelID(l)
		}
		ops = append(ops, op)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return ops, nil
}

func maxU(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// parseGroupKey parses a -group key: "v:0", "vlabel:2" or "elabel:0,1".
func parseGroupKey(s string) (huge.GroupKey, error) {
	kind, rest, ok := strings.Cut(s, ":")
	bad := func() (huge.GroupKey, error) {
		return huge.GroupKey{}, fmt.Errorf("-group %q: want v:<qv>, vlabel:<qv> or elabel:<a>,<b>", s)
	}
	if !ok {
		return bad()
	}
	switch kind {
	case "v", "vlabel":
		qv, err := strconv.Atoi(rest)
		if err != nil {
			return bad()
		}
		if kind == "v" {
			return huge.VertexVar(qv), nil
		}
		return huge.VertexLabelOf(qv), nil
	case "elabel":
		as, bs, ok := strings.Cut(rest, ",")
		if !ok {
			return bad()
		}
		a, errA := strconv.Atoi(strings.TrimSpace(as))
		b, errB := strconv.Atoi(strings.TrimSpace(bs))
		if errA != nil || errB != nil {
			return bad()
		}
		return huge.EdgeLabelOf(a, b), nil
	}
	return bad()
}

// printGroups renders the grouped run's table (and optional histogram):
// Result.Groups is already selected and ordered — ranked when -topgroups
// asked for the heap selection, key-ascending otherwise.
func printGroups(res huge.Result, keyDesc string, topK, hist int) {
	heading := fmt.Sprintf("groups by %s: %d", keyDesc, len(res.Groups))
	if topK > 0 {
		heading += fmt.Sprintf(" (top %d by count)", topK)
	}
	fmt.Println(heading)
	for _, g := range res.Groups {
		fmt.Printf("  key %-8d %d\n", g.Key, g.Count)
	}
	if hist > 0 {
		fmt.Printf("histogram (log2 buckets over all groups):\n")
		for i, n := range res.Hist {
			if n == 0 {
				continue
			}
			fmt.Printf("  [2^%d, 2^%d): %d groups\n", i, i+1, n)
		}
	}
}

// parseVertexLabels parses "-vlabels 2,*,2,*" into per-vertex constraints.
func parseVertexLabels(s string, n int) ([]int, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-vlabels: %d entries for a %d-vertex query", len(parts), n)
	}
	out := make([]int, n)
	for i, p := range parts {
		p = strings.TrimSpace(p)
		if p == "*" || p == "" {
			out[i] = huge.AnyLabel
			continue
		}
		l, err := strconv.ParseUint(p, 10, 16)
		if err != nil {
			return nil, fmt.Errorf("-vlabels entry %q: %v", p, err)
		}
		out[i] = int(l)
	}
	return out, nil
}
