package huge_test

// Standing-query subscription tests: the oracle cross-check (every event's
// match delta equals the standalone Query.Delta() enumeration, and the
// per-subscriber incremental view telescopes: full(t) + Δ == full(t+1)),
// shared-run amortisation across isomorphic twins, slow-consumer policies,
// and lifecycle races under -race (Apply vs Subscribe vs Close vs slow
// consumers), plus the goroutine-leak regression CI runs.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/huge"
)

// matchKey flattens a match for set comparison.
func matchKey(m []huge.VertexID) string { return fmt.Sprint(m) }

func sortedKeys(ms [][]huge.VertexID) []string {
	ks := make([]string, len(ms))
	for i, m := range ms {
		ks[i] = matchKey(m)
	}
	sort.Strings(ks)
	return ks
}

// tryEvent receives the event an Apply buffered, if any. Maintenance runs
// synchronously inside Apply, so by the time Apply returns the event is
// either in the channel or was never produced — no waiting involved.
func tryEvent(sub *huge.Subscription) (huge.Event, bool) {
	select {
	case ev, ok := <-sub.C():
		return ev, ok
	default:
		return huge.Event{}, false
	}
}

// TestSubscribeOracle cross-checks every fanned event against the
// standalone delta enumeration of the same epoch and maintains the
// telescoping full count per subscriber.
func TestSubscribeOracle(t *testing.T) {
	ctx := context.Background()
	g := testGraph(240, 3, 0, 61)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})
	q := huge.Triangle()

	sub, err := sys.Subscribe(q)
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	res, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatalf("full run: %v", err)
	}
	running := int64(res.Count)

	for epoch := 1; epoch <= 4; epoch++ {
		sys.Apply(randomDelta(sys.Graph(), 40, 0, 0, int64(100+epoch)))

		// Standalone oracle on the snapshot Apply installed.
		var mu sync.Mutex // OnMatch is called from the engine's workers
		var wantNew [][]huge.VertexID
		dres, err := sys.Exec(ctx, q.Delta(), huge.OnMatch(func(m []huge.VertexID) {
			mu.Lock()
			wantNew = append(wantNew, append([]huge.VertexID(nil), m...))
			mu.Unlock()
		})).Wait()
		if err != nil {
			t.Fatalf("epoch %d: delta run: %v", epoch, err)
		}

		ev, ok := tryEvent(sub)
		if dres.DeltaNew == 0 && dres.DeltaDead == 0 {
			if ok {
				t.Fatalf("epoch %d: event fanned for an empty delta: %+v", epoch, ev)
			}
			continue
		}
		if !ok {
			t.Fatalf("epoch %d: no event for a non-empty delta (new=%d dead=%d)",
				epoch, dres.DeltaNew, dres.DeltaDead)
		}
		if ev.Epoch != sys.Epoch() {
			t.Fatalf("epoch %d: event epoch %d, want %d", epoch, ev.Epoch, sys.Epoch())
		}
		if ev.Missed != 0 {
			t.Fatalf("epoch %d: drained subscriber reports %d missed events", epoch, ev.Missed)
		}
		got, want := sortedKeys(ev.New), sortedKeys(wantNew)
		if len(got) != len(want) {
			t.Fatalf("epoch %d: event carries %d new matches, standalone delta %d",
				epoch, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("epoch %d: new-match sets differ at %d: %s vs %s", epoch, i, got[i], want[i])
			}
		}
		if uint64(len(ev.Dead)) != dres.DeltaDead {
			t.Fatalf("epoch %d: event carries %d dead matches, standalone delta %d",
				epoch, len(ev.Dead), dres.DeltaDead)
		}

		// Telescope: the subscriber's incrementally-maintained count must
		// land exactly on the new snapshot's full count.
		running += int64(len(ev.New)) - int64(len(ev.Dead))
		full, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatalf("epoch %d: full run: %v", epoch, err)
		}
		if running != int64(full.Count) {
			t.Fatalf("epoch %d: incremental view %d, full count %d", epoch, running, full.Count)
		}
	}

	ms := sys.MaintenanceStats()
	if ms.Applies == 0 || ms.SharedRuns == 0 {
		t.Fatalf("maintenance counters never moved: %+v", ms)
	}
}

// TestSubscribeTwinsShareOneRun registers two differently-numbered
// subscriptions of the same pattern and checks that one shared run serves
// both, each in its own numbering (every delivered match must be a valid
// embedding of the subscriber's own query).
func TestSubscribeTwinsShareOneRun(t *testing.T) {
	g := testGraph(240, 3, 0, 67)
	sys := huge.NewSystem(g, huge.Options{Machines: 3, Workers: 2})

	// Two numberings of the 3-path: centre vertex 1 vs centre vertex 0.
	qa := huge.NewQuery("p3-centre1", [][2]int{{0, 1}, {1, 2}})
	qb := huge.NewQuery("p3-centre0", [][2]int{{1, 0}, {0, 2}})
	if qa.Fingerprint() != qb.Fingerprint() {
		t.Fatalf("twin numberings do not share a fingerprint")
	}

	sa, err := sys.Subscribe(qa)
	if err != nil {
		t.Fatalf("Subscribe a: %v", err)
	}
	defer sa.Close()
	sb, err := sys.Subscribe(qb)
	if err != nil {
		t.Fatalf("Subscribe b: %v", err)
	}
	defer sb.Close()
	if got := sys.SubscriptionGroups(); got != 1 {
		t.Fatalf("twin subscriptions split into %d groups", got)
	}

	sys.Apply(randomDelta(sys.Graph(), 60, 0, 0, 71))

	ms := sys.MaintenanceStats()
	if ms.SharedRuns != 1 {
		t.Fatalf("twin group ran %d shared runs for one Apply, want 1", ms.SharedRuns)
	}
	if ms.ServedSubscribers != 2 || ms.DedupedRuns != 1 {
		t.Fatalf("served=%d deduped=%d, want 2/1", ms.ServedSubscribers, ms.DedupedRuns)
	}

	ng := sys.Graph()
	for _, tc := range []struct {
		sub *huge.Subscription
		q   *huge.Query
	}{{sa, qa}, {sb, qb}} {
		ev, ok := tryEvent(tc.sub)
		if !ok {
			t.Fatalf("%s: no event after a 60-op delta", tc.q.Name())
		}
		if len(ev.New) == 0 && len(ev.Dead) == 0 {
			t.Fatalf("%s: empty event delivered", tc.q.Name())
		}
		for _, m := range ev.New {
			for _, e := range tc.q.Edges() {
				if !ng.HasEdge(m[e[0]], m[e[1]]) {
					t.Fatalf("%s: new match %v misses query edge %v in its own numbering",
						tc.q.Name(), m, e)
				}
			}
		}
	}

	// Both events describe the same delta, just re-indexed: counts agree.
	// (Matches were consumed above; compare via the cumulative counter.)
	if ms.FannedMatches%2 != 0 {
		t.Fatalf("twin subscribers received unequal payloads: FannedMatches=%d", ms.FannedMatches)
	}
}

// TestSubscribeJoinsAtCurrentEpoch checks the registration handshake: a
// subscriber joining after e epochs never sees epoch ≤ e.
func TestSubscribeJoinsAtCurrentEpoch(t *testing.T) {
	g := testGraph(200, 3, 0, 73)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	sys.Apply(randomDelta(sys.Graph(), 30, 0, 0, 74))
	joined := sys.Epoch()

	sub, err := sys.Subscribe(huge.Triangle())
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()
	if ev, ok := tryEvent(sub); ok {
		t.Fatalf("event %d delivered before any post-subscribe Apply", ev.Epoch)
	}
	for i := 0; i < 3; i++ {
		sys.Apply(randomDelta(sys.Graph(), 30, 0, 0, int64(75+i)))
		if ev, ok := tryEvent(sub); ok && ev.Epoch <= joined {
			t.Fatalf("event for epoch %d delivered to a subscriber that joined at %d", ev.Epoch, joined)
		}
	}
}

// TestSubscribeBoundedGroup checks SubLimit semantics: events carry at
// most k new matches and no dead side when the whole group is bounded.
func TestSubscribeBoundedGroup(t *testing.T) {
	g := testGraph(240, 3, 0, 79)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	sub, err := sys.Subscribe(huge.Triangle(), huge.SubLimit(3))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	for i := 0; i < 4; i++ {
		sys.Apply(randomDelta(sys.Graph(), 50, 0, 0, int64(80+i)))
		ev, ok := tryEvent(sub)
		if !ok {
			continue
		}
		if len(ev.New) > 3 {
			t.Fatalf("bounded subscription got %d new matches, limit 3", len(ev.New))
		}
		if len(ev.Dead) != 0 {
			t.Fatalf("all-bounded group enumerated the dead side: %d matches", len(ev.Dead))
		}
	}
}

// TestSubscribeShedPolicy starves a 1-slot subscriber and checks that
// sheds are counted and surfaced in the next delivered event's Missed.
func TestSubscribeShedPolicy(t *testing.T) {
	g := testGraph(240, 3, 0, 83)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	sub, err := sys.Subscribe(huge.Triangle(), huge.SubBuffer(1))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}
	defer sub.Close()

	// Fill the 1-slot buffer, then keep applying without draining until
	// at least one event is shed.
	for i := 0; i < 8 && sub.Missed() == 0; i++ {
		sys.Apply(randomDelta(sys.Graph(), 50, 0, 0, int64(90+i)))
	}
	if sub.Missed() == 0 {
		t.Fatalf("no event shed after 8 undrained applies")
	}
	if ms := sys.MaintenanceStats(); ms.ShedEvents == 0 {
		t.Fatalf("subscription shed but system counter is zero: %+v", ms)
	}

	// Drain the buffered event, then the next delivery must carry the gap.
	if _, ok := tryEvent(sub); !ok {
		t.Fatalf("buffered event vanished")
	}
	for i := 0; i < 8; i++ {
		sys.Apply(randomDelta(sys.Graph(), 50, 0, 0, int64(110+i)))
		if ev, ok := tryEvent(sub); ok {
			if ev.Missed == 0 {
				t.Fatalf("delivered event after sheds reports Missed=0")
			}
			return
		}
	}
	t.Fatalf("no event delivered after draining")
}

// TestSubscribeDisconnectPolicy checks that a SubDisconnect subscriber is
// force-closed with ErrSlowConsumer when its buffer overflows, and that
// already-buffered events stay readable.
func TestSubscribeDisconnectPolicy(t *testing.T) {
	g := testGraph(240, 3, 0, 87)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	sub, err := sys.Subscribe(huge.Triangle(), huge.SubBuffer(1), huge.SubOverflow(huge.SubDisconnect))
	if err != nil {
		t.Fatalf("Subscribe: %v", err)
	}

	for i := 0; i < 8 && sub.Err() == nil; i++ {
		sys.Apply(randomDelta(sys.Graph(), 50, 0, 0, int64(120+i)))
	}
	if !errors.Is(sub.Err(), huge.ErrSlowConsumer) {
		t.Fatalf("Err() = %v, want ErrSlowConsumer", sub.Err())
	}
	if sys.Subscriptions() != 0 {
		t.Fatalf("disconnected subscription still registered")
	}
	if ms := sys.MaintenanceStats(); ms.Disconnected != 1 {
		t.Fatalf("Disconnected=%d, want 1", ms.Disconnected)
	}
	// The buffered event, then the close.
	if _, ok := <-sub.C(); !ok {
		t.Fatalf("buffered event lost on disconnect")
	}
	if _, ok := <-sub.C(); ok {
		t.Fatalf("channel still open after disconnect")
	}
	sub.Close() // idempotent after disconnect
}

// TestSubscribeLifecycleRace races Apply, Subscribe, Close, draining and
// deliberately-slow consumers; run under -race this is the send-vs-close
// and registration-vs-maintenance correctness check.
func TestSubscribeLifecycleRace(t *testing.T) {
	g := testGraph(200, 3, 0, 91)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})

	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Applier: continuous churn.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			sys.Apply(randomDelta(sys.Graph(), 30, 0, 0, int64(200+i)))
		}
		close(stop)
	}()

	// Churning subscribers: subscribe, drain a little, close, repeat.
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			queries := []*huge.Query{huge.Triangle(), huge.Q1(),
				huge.NewQuery("p3", [][2]int{{0, 1}, {1, 2}})}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sub, err := sys.Subscribe(queries[(w+i)%len(queries)], huge.SubBuffer(2))
				if err != nil {
					t.Error(err)
					return
				}
				select {
				case <-sub.C():
				case <-time.After(time.Millisecond):
				}
				sub.Close()
			}
		}(w)
	}

	// A slow disconnect-policy consumer that never drains.
	wg.Add(1)
	go func() {
		defer wg.Done()
		sub, err := sys.Subscribe(huge.Q2(), huge.SubBuffer(1), huge.SubOverflow(huge.SubDisconnect))
		if err != nil {
			t.Error(err)
			return
		}
		<-stop
		sub.Close()
	}()

	wg.Wait()

	// Drain-down: closing every remaining subscription empties the registry.
	if n := sys.Subscriptions(); n != 0 {
		t.Fatalf("%d subscriptions leaked past their Close", n)
	}
}

// TestRelabelMaintenanceRace: a vertex relabel makes Apply rebuild both
// pinned edge sets, which four pattern groups then scan concurrently, so
// a published set must never be written — -race reports a set that sorts
// itself on first read. Every subscriber's view must also telescope onto
// the full recount of each epoch.
func TestRelabelMaintenanceRace(t *testing.T) {
	ctx := context.Background()
	g := testGraph(200, 3, 3, 73)
	sys := huge.NewSystem(g, huge.Options{Machines: 1, Workers: 2})
	queries := []*huge.Query{
		huge.Triangle(),
		huge.Q1(),
		huge.NewLabeledQuery("ltri", [][2]int{{0, 1}, {1, 2}, {0, 2}}, []int{0, 1, huge.AnyLabel}),
		huge.NewLabeledQuery("lwedge", [][2]int{{0, 1}, {1, 2}}, []int{1, huge.AnyLabel, 2}),
	}
	subs := make([]*huge.Subscription, len(queries))
	running := make([]int64, len(queries))
	for i, q := range queries {
		sub, err := sys.Subscribe(q, huge.SubBuffer(16))
		if err != nil {
			t.Fatal(err)
		}
		defer sub.Close()
		subs[i] = sub
		res, err := sys.Exec(ctx, q, huge.CountOnly()).Wait()
		if err != nil {
			t.Fatal(err)
		}
		running[i] = int64(res.Count)
	}
	if n := sys.SubscriptionGroups(); n != len(queries) {
		t.Fatalf("%d subscription groups, want %d", n, len(queries))
	}
	events := 0
	for epoch := 1; epoch <= 6; epoch++ {
		d := randomDelta(sys.Graph(), 4, 3, 3, int64(300+epoch))
		if epoch%2 == 0 {
			d.Insert, d.Delete = nil, nil // a relabel-only epoch
		}
		sys.Apply(d)
		for i, q := range queries {
			if ev, ok := tryEvent(subs[i]); ok {
				events++
				running[i] += int64(len(ev.New)) - int64(len(ev.Dead))
			}
			full, err := sys.Exec(ctx, q, huge.CountOnly()).Wait()
			if err != nil {
				t.Fatal(err)
			}
			if running[i] != int64(full.Count) {
				t.Fatalf("epoch %d, %s: incremental view %d, full count %d", epoch, q.Name(), running[i], full.Count)
			}
		}
	}
	if events < len(queries) {
		t.Fatalf("%d events in 6 epochs: the relabels changed next to no match", events)
	}
}

// TestSubscribeNoGoroutineLeak is the CI leak regression: subscribing,
// serving and unsubscribing everything returns the process to its baseline
// goroutine count (the subscription layer owns no goroutines at all — the
// fan-out rides the Apply caller — so anything above baseline is a leaked
// engine worker).
func TestSubscribeNoGoroutineLeak(t *testing.T) {
	g := testGraph(200, 3, 0, 97)
	sys := huge.NewSystem(g, huge.Options{Machines: 2, Workers: 2})
	baseline := runtime.NumGoroutine()

	subs := make([]*huge.Subscription, 0, 64)
	for i := 0; i < 64; i++ {
		sub, err := sys.Subscribe(huge.Triangle(), huge.SubBuffer(1))
		if err != nil {
			t.Fatalf("Subscribe %d: %v", i, err)
		}
		subs = append(subs, sub)
	}
	for i := 0; i < 3; i++ {
		sys.Apply(randomDelta(sys.Graph(), 40, 0, 0, int64(300+i)))
	}
	for _, sub := range subs {
		sub.Close()
	}
	if n := sys.Subscriptions(); n != 0 {
		t.Fatalf("%d subscriptions live after unsubscribe-all", n)
	}

	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines %d > baseline %d after unsubscribe-all\n%s",
			n, baseline, buf[:runtime.Stack(buf, true)])
	}
}
