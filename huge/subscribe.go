package huge

// Standing-query subscriptions: long-lived registrations that receive the
// match delta of every Apply. The serving-cost model follows the
// incremental-view-maintenance literature (Berkholz et al., PODS'17): pay
// an enumeration once per PATTERN per update, and only constant work per
// consumer on top. Concretely, subscriptions are grouped by their query's
// canonical fingerprint — the same relabelling-invariant key the plan
// cache uses — and after every Apply the maintenance path runs ONE shared
// difference-rewriting delta enumeration per live group on the new
// snapshot, then fans the labelled match deltas out to every subscriber in
// the group through bounded buffered channels with a non-blocking send and
// an explicit slow-consumer policy. 100K subscribers over a handful of
// distinct patterns cost a handful of delta runs per Apply plus 100K
// channel operations, not 100K enumerations.

import (
	"context"
	"errors"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataflow"
	"repro/internal/engine"
	"repro/internal/plan"
)

// ErrSlowConsumer is the terminal error of a subscription closed by the
// SubDisconnect overflow policy: an event arrived while the subscriber's
// buffer was full.
var ErrSlowConsumer = errors.New("huge: subscription closed: consumer too slow")

// OverflowPolicy says what the maintenance fan-out does when a
// subscriber's buffer is full at delivery time. Delivery never blocks the
// Apply path either way — a slow consumer costs itself, not the system.
type OverflowPolicy int

const (
	// SubShed drops the undeliverable event and marks the loss: the next
	// event that does get through carries the count of shed predecessors in
	// Event.Missed, so consumers know their view has gaps and can re-sync
	// with a full run.
	SubShed OverflowPolicy = iota
	// SubDisconnect force-closes the subscription instead; Err() reports
	// ErrSlowConsumer. For consumers that would rather die than silently
	// miss deltas.
	SubDisconnect
)

// defaultSubBuffer is the event-channel capacity when SubBuffer is not given.
const defaultSubBuffer = 16

type subOptions struct {
	buffer int
	limit  int
	policy OverflowPolicy
}

// SubOption configures a Subscribe call.
type SubOption func(*subOptions)

// SubBuffer sets the subscription's event-channel capacity (default 16,
// minimum 1). Larger buffers absorb longer consumer stalls before the
// overflow policy applies.
func SubBuffer(n int) SubOption { return func(o *subOptions) { o.buffer = n } }

// SubLimit caps each event's NEW matches at k, analogous to Exec's Limit:
// when every subscriber of a pattern group is bounded, the shared delta run
// carries a match budget of the group's largest limit and halts engine-side
// — and, exactly like Limit, the vanished-match side is skipped, so events
// carry no Dead matches then. A single unbounded subscriber in the group
// restores the full enumeration for everyone.
func SubLimit(k int) SubOption { return func(o *subOptions) { o.limit = k } }

// SubOverflow sets the slow-consumer policy (default SubShed).
func SubOverflow(p OverflowPolicy) SubOption { return func(o *subOptions) { o.policy = p } }

// Event is one epoch's match delta for one subscription. Matches are
// indexed by the SUBSCRIBER's query vertices (relabelled twins of one
// pattern share the underlying enumeration but each numbering gets its own
// re-indexed payload). The slices are shared between subscribers of the
// same numbering and must be treated as read-only.
type Event struct {
	// Epoch is the snapshot version this delta produced (the value the
	// triggering Apply returned).
	Epoch uint64
	// New holds the matches this epoch created — each contains at least one
	// inserted edge. Truncated to SubLimit when set.
	New [][]VertexID
	// Dead holds the matches this epoch destroyed, enumerated against the
	// previous snapshot. Empty in all-bounded groups (see SubLimit).
	Dead [][]VertexID
	// Missed counts events shed (SubShed policy) since the previous
	// delivered event; non-zero means the consumer's incremental view has a
	// gap and full(t) + Δ == full(t+1) no longer telescopes for it.
	Missed uint64
}

// Subscription is a live standing query. Receive events from C(); stop
// with Close(). After the channel closes, Err() says why: nil for a caller
// Close, ErrSlowConsumer for a SubDisconnect overflow.
type Subscription struct {
	sys     *System
	q       *Query
	fp      string
	variant int // index into the group's numbering variants (0 = representative's)
	limit   int
	policy  OverflowPolicy

	// since is the epoch the subscriber is current as of: it joined
	// observing that snapshot, so maintenance only delivers epochs strictly
	// after it. Written once, while Subscribe write-holds the table.
	since uint64

	// pendingMissed accumulates shed events until the next delivery; only
	// the maintenance path (serialised under applyMu) touches it.
	pendingMissed uint64
	shed          atomic.Uint64

	// err is why the channel closed; written (before the close) and read
	// under the table's lock.
	err error

	ch chan Event
}

// C returns the event channel. It closes when the subscription ends —
// Close, or a SubDisconnect overflow.
func (sub *Subscription) C() <-chan Event { return sub.ch }

// Query returns the subscribed pattern.
func (sub *Subscription) Query() *Query { return sub.q }

// Missed returns the cumulative number of events shed from this
// subscription by the SubShed policy.
func (sub *Subscription) Missed() uint64 { return sub.shed.Load() }

// Err returns why the channel closed: nil while live or after a caller
// Close, ErrSlowConsumer after a SubDisconnect overflow.
func (sub *Subscription) Err() error {
	t := &sub.sys.subs
	t.mu.RLock()
	defer t.mu.RUnlock()
	return sub.err
}

// Close unsubscribes and closes the event channel. It blocks until any
// in-flight maintenance pass finishes, so no send can race the close;
// events already buffered remain readable. Close is idempotent and safe to
// call concurrently with everything else.
func (sub *Subscription) Close() error {
	sub.sys.subs.drop(sub, nil)
	return nil
}

// subGroup is the per-fingerprint shared state of a subscription group:
// the representative query (the first subscriber's), the delta flows
// translated from it — cached so every Apply pays enumeration only, not
// re-translation — and the numbering variants seen so far. variants[0] is
// nil, the representative's own numbering; each other entry is the
// isomorphism from the representative's vertices onto that variant's
// (match re-indexing is computed once per variant per event, not per
// subscriber) — and the live members. A group exists exactly while it has
// members.
type subGroup struct {
	rep      *Query
	flows    []*dataflow.Dataflow
	variants [][]int
	members  map[*Subscription]struct{}
}

// subscriptions is the one table of a System's standing queries: every
// subscriber, grouped by its query's canonical fingerprint, with each
// group's shared maintenance state beside its members. One RWMutex guards
// all of it. A maintenance pass read-holds it from its survey of the
// groups to the last delivery; Subscribe, Close and a slow-consumer
// disconnect write-hold it. So a registration or a removal never overlaps
// a pass — which is what orders a subscriber's since epoch against every
// pass, and what makes "never send on a closed channel" structural rather
// than a per-send check.
type subscriptions struct {
	mu     sync.RWMutex
	groups map[string]*subGroup
	count  int // live subscribers over all groups
}

// Subscribe registers q as a standing query: every subsequent Apply
// delivers the matches it created and destroyed as one Event on the
// subscription's channel (epochs with an empty delta for the pattern
// deliver nothing). Subscriptions of fingerprint-equivalent queries —
// including relabelled twins — share one delta enumeration per Apply; see
// the package-level cost model above. The subscriber must drain C()
// roughly at Apply rate or choose its failure mode via SubOverflow.
func (s *System) Subscribe(q *Query, opts ...SubOption) (*Subscription, error) {
	if q == nil {
		return nil, errors.New("huge: Subscribe: nil query")
	}
	o := subOptions{buffer: defaultSubBuffer}
	for _, opt := range opts {
		opt(&o)
	}
	if o.buffer < 1 {
		o.buffer = 1
	}
	if o.limit < 0 {
		o.limit = 0
	}

	fp := q.Fingerprint()
	sub := &Subscription{
		sys:    s,
		q:      q,
		fp:     fp,
		limit:  o.limit,
		policy: o.policy,
		ch:     make(chan Event, o.buffer),
	}

	// Group state and membership change together under the table's write
	// lock; no maintenance pass is in flight meanwhile. Reading the epoch
	// inside it orders since against every pass: one that ran entirely
	// before this registration installed its snapshot first, so the epoch
	// read here already reflects it and its event is correctly skipped; one
	// that starts afterwards sees a fully-initialised subscriber.
	t := &s.subs
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[fp]
	if g == nil {
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			return nil, err
		}
		g = &subGroup{rep: q, flows: flows, variants: [][]int{nil}, members: map[*Subscription]struct{}{}}
	}
	if !g.rep.SameNumbering(q) {
		m, ok := g.rep.IsomorphismTo(q)
		if !ok {
			// Equal fingerprints guarantee an isomorphism; this is unreachable.
			return nil, errors.New("huge: Subscribe: fingerprint collision")
		}
		sub.variant = slices.IndexFunc(g.variants, func(v []int) bool { return slices.Equal(v, m) })
		if sub.variant < 0 {
			g.variants = append(g.variants, m)
			sub.variant = len(g.variants) - 1
		}
	}
	sub.since = s.Epoch()
	g.members[sub] = struct{}{}
	t.groups[fp] = g
	t.count++
	return sub, nil
}

// drop unregisters sub and closes its channel with err as the terminal
// Err, reporting whether this call was the one that did. Holding the write
// lock means no maintenance pass is in flight, and after the removal none
// can see the subscriber, so the close cannot race a send; membership
// makes it idempotent.
func (t *subscriptions) drop(sub *Subscription, err error) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	g := t.groups[sub.fp]
	if g == nil {
		return false
	}
	if _, live := g.members[sub]; !live {
		return false
	}
	delete(g.members, sub)
	if len(g.members) == 0 {
		delete(t.groups, sub.fp)
	}
	t.count--
	sub.err = err
	close(sub.ch)
	return true
}

// Subscriptions returns the number of live subscriptions.
func (s *System) Subscriptions() int {
	s.subs.mu.RLock()
	defer s.subs.mu.RUnlock()
	return s.subs.count
}

// SubscriptionGroups returns the number of distinct patterns (canonical
// fingerprints) with live subscriptions — the number of shared delta runs
// each Apply pays.
func (s *System) SubscriptionGroups() int {
	s.subs.mu.RLock()
	defer s.subs.mu.RUnlock()
	return len(s.subs.groups)
}

// MaintenanceStats returns the cumulative standing-query maintenance
// counters: shared runs vs served subscribers is the amortisation, shed
// and disconnected the back-pressure outcomes.
func (s *System) MaintenanceStats() MaintenanceSummary { return s.maint.Snapshot() }

// maintainSubscriptions runs after every Apply (under applyMu, so passes
// are serialised): one shared delta enumeration per live pattern group on
// the freshly-installed snapshot, fanned out to the group's subscribers,
// all while read-holding the table.
func (s *System) maintainSubscriptions(next *snapshot) {
	t := &s.subs
	t.mu.RLock()
	if t.count == 0 {
		t.mu.RUnlock()
		return
	}
	s.maint.Applies.Add(1)
	groups := make([]*subGroup, 0, len(t.groups))
	for _, g := range t.groups {
		groups = append(groups, g)
	}
	// Distinct pattern groups are independent — separate flows, disjoint
	// subscribers — so they maintain concurrently: with the usual
	// many-subscribers-few-patterns population the wall clock per Apply is
	// the slowest group's run, not the sum.
	drops := make([][]*Subscription, len(groups))
	parallel(len(groups), maxGroupWorkers, func(i int) {
		drops[i] = s.maintainGroup(next, groups[i])
	})
	t.mu.RUnlock()
	// Disconnects write-hold the table; the pass must be over.
	for _, sub := range slices.Concat(drops...) {
		if t.drop(sub, ErrSlowConsumer) {
			s.maint.Disconnected.Add(1)
		}
	}
}

// parallel runs fn(0) … fn(n-1) on up to workers goroutines, each taking
// the next index as it finishes one, and returns once all have run. When
// one worker suffices it is the caller.
func parallel(n, workers int, fn func(i int)) {
	if workers = min(n, workers); workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// maxGroupWorkers caps how many pattern groups maintain concurrently per
// Apply. Each group's delta run already fans across the cluster's
// machines/workers, so a small factor suffices to hide group skew.
const maxGroupWorkers = 4

// maintainGroup serves one pattern group for one epoch: survey the
// eligible members, run the group's cached delta flows ONCE, re-index the
// payload per numbering variant, and deliver without blocking. Returns the
// subscribers to disconnect (SubDisconnect policy with a full buffer). The
// caller read-holds the table, so g does not change underneath it.
func (s *System) maintainGroup(sn *snapshot, g *subGroup) (drops []*Subscription) {
	epoch := sn.epoch()
	live := make([]*Subscription, 0, len(g.members))
	bounded := true
	maxLimit := 0
	for sub := range g.members {
		if sub.since >= epoch {
			continue // joined at (or after) this snapshot; its view already includes the delta
		}
		live = append(live, sub)
		if sub.limit <= 0 {
			bounded = false
		} else if sub.limit > maxLimit {
			maxLimit = sub.limit
		}
	}
	if len(live) == 0 {
		return nil
	}
	// All-bounded groups share one engine-side budget sized to the largest
	// limit: the run halts after maxLimit new matches, and per-subscriber
	// truncation does the rest. Mirrors Exec's Limit semantics, including
	// skipping the dead side.
	var budget *engine.Budget
	if bounded {
		budget = engine.NewBudget(uint64(maxLimit))
	}

	// ONE shared enumeration in the representative's numbering. The engine
	// may deliver matches from several goroutines; reindexed hands each
	// collector a freshly-allocated match, so append-under-mutex is all the
	// collection needs.
	var mu sync.Mutex
	var newM, deadM [][]VertexID
	collect := func(dst *[][]VertexID) func([]VertexID) {
		return func(m []VertexID) {
			mu.Lock()
			*dst = append(*dst, m)
			mu.Unlock()
		}
	}
	// No group aggregation on the maintenance path: the flows are cached
	// per subscription group and must never carry a per-run GroupSpec.
	// Maintenance runs stay ungoverned (nil handle): they execute under
	// applyMu as part of Apply, and queueing them behind client admission
	// would stall every Apply on the system.
	_, err := s.runDeltaFlows(context.Background(), sn, g.flows, run{fn: collect(&newM), budget: budget}, collect(&deadM))
	s.maint.SharedRuns.Add(1)
	s.maint.ServedSubscribers.Add(uint64(len(live)))
	s.maint.DedupedRuns.Add(uint64(len(live) - 1))
	if err != nil || (len(newM) == 0 && len(deadM) == 0) {
		// Nothing to deliver this epoch (or the shared run failed — a
		// snapshot-local enumeration has no per-subscriber failure to
		// report, and the next epoch retries from scratch).
		return nil
	}

	// Re-index once per numbering variant — up front, because the parallel
	// fan-out below must not race on lazy initialisation. Groups where
	// everyone shares the representative's numbering never pay a copy.
	newByVar := make([][][]VertexID, len(g.variants))
	deadByVar := make([][][]VertexID, len(g.variants))
	for _, sub := range live {
		if v := sub.variant; v == 0 || newByVar[v] == nil {
			newByVar[v] = remapMatches(g.variants[v], newM)
			deadByVar[v] = remapMatches(g.variants[v], deadM)
		}
	}

	// Fan out in chunks across workers: delivery is one non-blocking send
	// per subscriber, so at 100K subscribers the loop is bound by channel
	// ops and Subscription cache misses, not by anything shared — chunking
	// it keeps per-Apply fan-out latency flat as populations grow, and a
	// population under one chunk delivers inline. Each subscriber belongs to
	// exactly one chunk, so pendingMissed stays single-writer; the counters
	// are atomic.
	workers := min((len(live)+fanoutChunk-1)/fanoutChunk, maxFanoutWorkers)
	per := (len(live) + workers - 1) / workers
	dropsBy := make([][]*Subscription, workers)
	parallel(workers, workers, func(w int) {
		for _, sub := range live[min(w*per, len(live)):min((w+1)*per, len(live))] {
			evNew, evDead := newByVar[sub.variant], deadByVar[sub.variant]
			if sub.limit > 0 && len(evNew) > sub.limit {
				evNew = evNew[:sub.limit]
			}
			ev := Event{Epoch: epoch, New: evNew, Dead: evDead, Missed: sub.pendingMissed}
			select {
			case sub.ch <- ev:
				sub.pendingMissed = 0
				s.maint.FannedEvents.Add(1)
				s.maint.FannedMatches.Add(uint64(len(evNew) + len(evDead)))
			default:
				if sub.policy == SubDisconnect {
					dropsBy[w] = append(dropsBy[w], sub)
				} else {
					sub.pendingMissed++
					sub.shed.Add(1)
					s.maint.ShedEvents.Add(1)
				}
			}
		}
	})
	return slices.Concat(dropsBy...)
}

// fanoutChunk is the per-worker fan-out quantum.
const fanoutChunk = 4096

// maxFanoutWorkers caps fan-out parallelism per group.
const maxFanoutWorkers = 8

// remapMatches re-indexes matches from the group representative's
// numbering into a variant's: m[i] is the variant vertex corresponding to
// representative vertex i (query.IsomorphismTo). nil m is the identity and
// shares the input.
func remapMatches(m []int, src [][]VertexID) [][]VertexID {
	if m == nil || len(src) == 0 {
		return src
	}
	out := make([][]VertexID, len(src))
	for i, row := range src {
		r := make([]VertexID, len(row))
		for j, x := range row {
			r[m[j]] = x
		}
		out[i] = r
	}
	return out
}
