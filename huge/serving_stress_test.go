package huge_test

// The serving state under one composed schedule: Subscribe/Close under both
// overflow policies (relabelled twins included), Apply, cold ad-hoc Execs
// racing each other on the plan cache, NewSession/Refresh and Plan, all at
// once on one System — asserted through the system's own counters
// (PlanCacheStats, MaintenanceStats), not only through results. Run with
// -race (CI repeats it: which lock wins a Subscribe/Close/Apply race
// differs from run to run).

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/huge"
	"repro/internal/baseline"
)

// stressPacer hands the Apply count from the applier to the readers: a
// reader runs one burst of requests per generation it observes, and one
// last burst on the final epoch after the applier closes the pacer.
type stressPacer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	gen    int
	closed bool
}

func (p *stressPacer) advance(closed bool) {
	p.mu.Lock()
	if closed {
		p.closed = true
	} else {
		p.gen++
	}
	p.mu.Unlock()
	p.cond.Broadcast()
}

// awaitAfter blocks until a generation past gen exists and returns it; ok
// is false once the pacer is closed with none.
func (p *stressPacer) awaitAfter(gen int) (next int, ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for p.gen == gen && !p.closed {
		p.cond.Wait()
	}
	return p.gen, p.gen != gen
}

// planTriple is what the plan cache keys on, as the test sees it.
type planTriple struct {
	fp, family string
	epoch      uint64
}

// subLog is what one subscription delivered, with the query it was for.
type subLog struct {
	q       *huge.Query
	events  []huge.Event
	whole   bool // subscribed at epoch 0 and closed after the last Apply
	err     error
	dropped uint64 // Subscription.Missed at the end
}

func TestServingStateStress(t *testing.T) {
	const (
		applies  = 10
		readers  = 3
		churners = 4
	)
	g0 := testGraph(200, 3, 0, 131)
	sys := huge.NewSystem(g0, huge.Options{Machines: 2, Workers: 2})
	ctx := context.Background()

	p3 := huge.NewQuery("p3", [][2]int{{0, 1}, {1, 2}})
	p3Twin := huge.NewQuery("p3-twin", [][2]int{{1, 0}, {0, 2}}) // centre is vertex 0
	squareTwin := huge.NewQuery("square-twin", [][2]int{{2, 0}, {0, 3}, {3, 1}, {1, 2}})
	// Every standing pattern keeps one whole-run subscriber per numbering, so
	// its group is live at every Apply whatever the churners do.
	standing := []*huge.Query{huge.Triangle(), huge.Q1(), squareTwin, p3, p3Twin}
	const standingGroups = 3
	adhoc := []*huge.Query{huge.Triangle(), huge.Q1(), squareTwin, huge.Q2(), p3}

	var ops, readerOps atomic.Int64 // completed operations: all (the watchdog's heartbeat), readers' requests
	beat := make(chan struct{}, 1)  // one pending wake-up for the applier is enough
	readerTick := func() {
		ops.Add(1)
		readerOps.Add(1)
		select {
		case beat <- struct{}{}:
		default:
		}
	}

	var mu sync.Mutex // guards everything the goroutines report below
	graphs := []*huge.Graph{g0}
	plans := map[*huge.Plan]bool{}
	pointers := map[planTriple]map[*huge.Plan]bool{}
	tainted := map[planTriple]bool{}
	numberings := map[planTriple]map[string]bool{} // vertex numberings that requested the key
	numbered := map[planTriple]bool{}              // the key served a request that needs q's numbering
	requests := 0
	type counted struct {
		q     *huge.Query
		epoch uint64
		limit int // 0 = unlimited
		count uint64
	}
	var counts []counted
	var logs []*subLog

	// record notes one plan-cache request: the plan it got, and — when the
	// epoch it ran on is known — its key. A request is clean when that epoch
	// was still current after it returned: Apply had then not yet
	// invalidated the epoch's plans, so the key cannot have been built twice.
	// A request that needs q's own numbering (inNumbering, as System.Plan
	// does) rebuilds an entry a relabelled twin built, so a key requested
	// that way by one numbering and at all by another may hold two plans.
	record := func(p *huge.Plan, q *huge.Query, family string, epoch uint64, known, clean, inNumbering bool) {
		mu.Lock()
		defer mu.Unlock()
		requests++
		plans[p] = true
		if !known {
			return
		}
		k := planTriple{q.Fingerprint(), family, epoch}
		if pointers[k] == nil {
			pointers[k] = map[*huge.Plan]bool{}
			numberings[k] = map[string]bool{}
		}
		pointers[k][p] = true
		numberings[k][fmt.Sprint(q.Edges())] = true
		numbered[k] = numbered[k] || inNumbering
		if !clean {
			tainted[k] = true
		}
	}

	// consume drains a subscription to its close and files what it saw.
	var consumers sync.WaitGroup
	consume := func(sub *huge.Subscription, whole bool) {
		consumers.Add(1)
		go func() {
			defer consumers.Done()
			l := &subLog{q: sub.Query(), whole: whole}
			for ev := range sub.C() {
				l.events = append(l.events, ev)
			}
			l.err, l.dropped = sub.Err(), sub.Missed()
			mu.Lock()
			logs = append(logs, l)
			mu.Unlock()
		}()
	}

	var wholeSubs []*huge.Subscription
	for _, q := range standing {
		sub, err := sys.Subscribe(q, huge.SubBuffer(applies+1))
		if err != nil {
			t.Fatal(err)
		}
		wholeSubs = append(wholeSubs, sub)
		consume(sub, true)
	}
	// Two consumers that never drain while the run lasts, one per policy.
	slowShed, err := sys.Subscribe(huge.Triangle(), huge.SubBuffer(1))
	if err != nil {
		t.Fatal(err)
	}
	slowDisc, err := sys.Subscribe(huge.Triangle(), huge.SubBuffer(1), huge.SubOverflow(huge.SubDisconnect))
	if err != nil {
		t.Fatal(err)
	}

	pace := &stressPacer{}
	pace.cond = sync.NewCond(&pace.mu)
	stop := make(chan struct{})
	var wg sync.WaitGroup

	// Applier: each Apply waits for a few reader requests since the last
	// one, so it lands inside the readers' bursts. On odd rounds it also
	// holds a subscription to a pattern nobody else subscribes to, creating
	// and deleting that group while the churners work the others.
	expectShared := uint64(0)
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		defer pace.advance(true)
		// The next target is fixed before the generation advances: every
		// reader still owes a whole burst then, so the wait below always ends.
		target := int64(12)
		for i := 1; i <= applies; i++ {
			for readerOps.Load() < target {
				<-beat
			}
			var own *huge.Subscription
			if i%2 == 1 {
				var err error
				if own, err = sys.Subscribe(huge.Q3(), huge.SubBuffer(1)); err != nil {
					t.Error(err)
					return
				}
				consume(own, false)
				expectShared++
			}
			epoch := sys.Apply(randomDelta(sys.Graph(), 24, 0, 0, int64(500+i)))
			expectShared += standingGroups
			mu.Lock()
			graphs = append(graphs, sys.Graph())
			mu.Unlock()
			if epoch != uint64(i) {
				t.Errorf("Apply %d returned epoch %d", i, epoch)
			}
			if own != nil {
				own.Close()
			}
			ops.Add(1)
			target = readerOps.Load() + 12
			pace.advance(false)
		}
	}()

	// Readers: one session each; per generation a burst of counting requests
	// over the same patterns in the same order, so cold requests for one key
	// race each other; then Plan through the System.
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			se := sys.NewSession()
			for gen, ok := 0, true; ok; gen, ok = pace.awaitAfter(gen) {
				if gen%2 == r%2 {
					se = sys.NewSession()
				} else {
					se.Refresh()
				}
				epoch := se.Epoch()
				for _, q := range adhoc {
					for _, limit := range []int{0, 5} {
						opts := []huge.Option{huge.CountOnly()}
						family := "optimal"
						if limit > 0 {
							opts, family = append(opts, huge.Limit(limit)), "wco"
						}
						res, err := se.Exec(ctx, q, opts...).Wait()
						if err != nil {
							t.Errorf("reader %d: %s at epoch %d: %v", r, q.Name(), epoch, err)
							return
						}
						record(res.Plan, q, family, epoch, true, sys.Epoch() == epoch, false)
						mu.Lock()
						counts = append(counts, counted{q, epoch, limit, res.Count})
						mu.Unlock()
						readerTick()
					}
				}
				q := adhoc[(gen+r)%len(adhoc)]
				before := sys.Epoch()
				p := sys.Plan(q)
				record(p, q, "optimal", before, sys.Epoch() == before, true, true)
				readerTick()
			}
		}(r)
	}

	// Churners: Subscribe and Close in a loop under both policies; the even
	// ones stay for a generation, the odd ones leave at once.
	for c := 0; c < churners; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i, gen := 0, 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				policy := huge.SubShed
				if (c+i)%2 == 1 {
					policy = huge.SubDisconnect
				}
				sub, err := sys.Subscribe(standing[(c+i)%len(standing)], huge.SubBuffer(2), huge.SubOverflow(policy))
				if err != nil {
					t.Error(err)
					return
				}
				consume(sub, false)
				if c%2 == 0 {
					gen, _ = pace.awaitAfter(gen)
				} else {
					runtime.Gosched()
				}
				sub.Close()
				ops.Add(1)
			}
		}(c)
	}

	// Watchdog: the schedule must keep completing operations.
	finished := make(chan struct{})
	go func() { wg.Wait(); close(finished) }()
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for last, lastMoved, running := int64(-1), time.Now(), true; running; {
		select {
		case <-finished:
			running = false
		case now := <-tick.C:
			if n := ops.Load(); n != last {
				last, lastMoved = n, now
			} else if now.Sub(lastMoved) > 30*time.Second {
				buf := make([]byte, 1<<22)
				t.Fatalf("no operation completed for 30 s (%d so far)\n%s", n, buf[:runtime.Stack(buf, true)])
			}
		}
	}

	for _, sub := range append(wholeSubs, slowShed, slowDisc) {
		sub.Close()
	}
	consume(slowShed, false)
	consume(slowDisc, false)
	consumers.Wait()
	if t.Failed() {
		return
	}

	// The table is empty again, and maintenance ran once per live group.
	if n, gr := sys.Subscriptions(), sys.SubscriptionGroups(); n != 0 || gr != 0 {
		t.Errorf("after the last Close: %d subscriptions in %d groups, want 0 in 0", n, gr)
	}
	maint := sys.MaintenanceStats()
	if maint.Applies != applies || maint.SharedRuns != expectShared {
		t.Errorf("maintenance: %d passes, %d shared runs; want %d passes and %d runs (live groups summed over Applies)",
			maint.Applies, maint.SharedRuns, applies, expectShared)
	}
	if !errors.Is(slowDisc.Err(), huge.ErrSlowConsumer) || maint.Disconnected == 0 {
		t.Errorf("undrained SubDisconnect consumer: Err = %v, %d disconnects counted", slowDisc.Err(), maint.Disconnected)
	}
	if slowShed.Err() != nil || slowShed.Missed() == 0 || maint.ShedEvents < slowShed.Missed() {
		t.Errorf("undrained SubShed consumer: Err = %v, missed %d, %d shed events counted", slowShed.Err(), slowShed.Missed(), maint.ShedEvents)
	}

	// Single-flight: every miss is one build, every build one new *Plan,
	// and a key nobody requested after its epoch was superseded was built
	// exactly once however many cold requests raced for it — unless twins
	// took turns replacing each other's numbering in it.
	hits, misses, _ := sys.PlanCacheStats()
	if misses != uint64(len(plans)) || hits+misses != uint64(requests) {
		t.Errorf("plan cache: %d hits + %d misses over %d requests that saw %d distinct plans; want misses == plans, hits + misses == requests",
			hits, misses, requests, len(plans))
	}
	clean := 0
	for k, ps := range pointers {
		if tainted[k] || numbered[k] && len(numberings[k]) > 1 {
			continue
		}
		clean++
		if len(ps) != 1 {
			t.Errorf("plan key %+v was built %d times", k, len(ps))
		}
	}
	if clean < len(adhoc) {
		t.Errorf("only %d of %d plan keys were requested on a current epoch: the schedule tests nothing", clean, len(pointers))
	}

	// Counts against the oracle, per epoch.
	type at struct {
		fp    string
		epoch uint64
	}
	oracle := map[at]uint64{}
	full := func(q *huge.Query, epoch uint64) uint64 {
		k := at{q.Fingerprint(), epoch}
		n, ok := oracle[k]
		if !ok {
			n = baseline.GroundTruthCount(graphs[epoch], q)
			oracle[k] = n
		}
		return n
	}
	for _, c := range counts {
		want := full(c.q, c.epoch)
		if c.limit > 0 {
			want = min(want, uint64(c.limit))
		}
		if c.count != want {
			t.Errorf("%s at epoch %d (limit %d): count %d, want %d", c.q.Name(), c.epoch, c.limit, c.count, want)
		}
	}

	// Events: every delivered match is a match of the subscriber's own
	// numbering on that epoch's graph, and a subscriber that lost nothing
	// telescopes — full(t) + Δ == full(t+1) over the window it observed,
	// which for a whole-run subscriber is epoch 0 to the last.
	delivered := 0
	for _, l := range logs {
		if l.err != nil && !errors.Is(l.err, huge.ErrSlowConsumer) {
			t.Errorf("%s: subscription ended with %v", l.q.Name(), l.err)
		}
		if len(l.events) == 0 {
			continue
		}
		gaps := l.dropped > 0
		first, prev := l.events[0].Epoch-1, l.events[0].Epoch-1
		net := int64(0)
		for _, ev := range l.events {
			delivered++
			if ev.Epoch <= prev || ev.Epoch > applies {
				t.Errorf("%s: event epoch %d after %d", l.q.Name(), ev.Epoch, prev)
			}
			prev = ev.Epoch
			gaps = gaps || ev.Missed > 0
			net += int64(len(ev.New)) - int64(len(ev.Dead))
			for side, ms := range [][][]huge.VertexID{ev.New, ev.Dead} {
				on := graphs[ev.Epoch-uint64(side)]
				for _, m := range ms {
					for _, e := range l.q.Edges() {
						if !on.HasEdge(m[e[0]], m[e[1]]) {
							t.Errorf("%s epoch %d: %v is not a match in the subscriber's numbering", l.q.Name(), ev.Epoch, m)
						}
					}
				}
			}
		}
		if l.whole {
			if gaps {
				t.Errorf("%s: whole-run subscriber with a buffer of %d lost events", l.q.Name(), applies+1)
			}
			first, prev = 0, applies
		}
		if got, want := int64(full(l.q, first))+net, int64(full(l.q, prev)); !gaps && got != want {
			t.Errorf("%s: full(%d) + Δ = %d, want full(%d) = %d", l.q.Name(), first, got, prev, want)
		}
	}
	t.Logf("%d operations: %d plan requests (%d builds, %d of %d keys clean), %d subscriptions, %d events, %d shed, %d disconnects",
		ops.Load(), requests, misses, clean, len(pointers), len(logs), delivered, maint.ShedEvents, maint.Disconnected)
	if uint64(delivered) != maint.FannedEvents {
		t.Errorf("subscribers received %d events, maintenance counted %d", delivered, maint.FannedEvents)
	}
}

// TestWarmPlanLookupDoesNotAllocate: a plan request that hits builds no
// key string and takes no per-key lock (7 allocations before the cache
// owned the protocol).
func TestWarmPlanLookupDoesNotAllocate(t *testing.T) {
	sys := huge.NewSystem(testGraph(200, 3, 0, 7), huge.Options{})
	q := huge.Q1()
	want := sys.Plan(q)
	if n := testing.AllocsPerRun(200, func() {
		if sys.Plan(q) != want {
			t.Fatal("warm lookup returned another plan")
		}
	}); n > 1 {
		t.Errorf("warm Plan allocates %.0f objects per call, want at most 1", n)
	}
}
