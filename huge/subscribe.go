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
	id      uint64
	variant int // index into the group's numbering variants (0 = representative's)
	limit   int
	policy  OverflowPolicy

	// since is the epoch the subscriber is current as of: it joined
	// observing that snapshot, so maintenance only delivers epochs strictly
	// after it. Written once inside the registry Add critical section,
	// which orders it against every maintenance pass (Registry.Add).
	since uint64

	// pendingMissed accumulates shed events until the next delivery; only
	// the maintenance path (serialised under applyMu) touches it.
	pendingMissed uint64
	shed          atomic.Uint64

	mu     sync.Mutex // guards closed/err and the close itself
	closed bool
	err    error

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
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.err
}

// Close unsubscribes and closes the event channel. It blocks until any
// in-flight maintenance pass over this pattern group finishes, so no send
// can race the close; events already buffered remain readable. Close is
// idempotent and safe to call concurrently with everything else.
func (sub *Subscription) Close() error {
	sub.sys.dropSub(sub, nil)
	return nil
}

// subGroup is the per-fingerprint shared state of a subscription group:
// the representative query (the first subscriber's), the delta flows
// translated from it — cached so every Apply pays enumeration only, not
// re-translation — and the numbering variants seen so far. variants[0] is
// nil, the representative's own numbering; each other entry is the
// isomorphism from the representative's vertices onto that variant's
// (match re-indexing is computed once per variant per event, not per
// subscriber).
type subGroup struct {
	rep      *Query
	flows    []*dataflow.Dataflow
	variants [][]int
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

	// Group state and registry membership update under groupMu, so a
	// concurrent last-member Close cannot delete the group between our
	// lookup and our registration (dropSub re-checks membership under the
	// same lock).
	s.groupMu.Lock()
	g := s.groups[fp]
	if g == nil {
		flows, err := plan.TranslateDelta(q)
		if err != nil {
			s.groupMu.Unlock()
			return nil, err
		}
		g = &subGroup{rep: q, flows: flows, variants: [][]int{nil}}
		s.groups[fp] = g
	}
	if !g.rep.SameNumbering(q) {
		m, ok := g.rep.IsomorphismTo(q)
		if !ok {
			// Equal fingerprints guarantee an isomorphism; this is unreachable.
			s.groupMu.Unlock()
			return nil, errors.New("huge: Subscribe: fingerprint collision")
		}
		sub.variant = -1
		for i, v := range g.variants {
			if slices.Equal(v, m) {
				sub.variant = i
				break
			}
		}
		if sub.variant < 0 {
			g.variants = append(g.variants, m)
			sub.variant = len(g.variants) - 1
		}
	}
	// Registering inside groupMu also orders the variant append above
	// before any maintenance pass that can observe this subscriber.
	s.subs.Add(fp, sub, func(id uint64) {
		sub.id = id
		// Read the epoch while holding the registry write lock: a
		// maintenance pass (which holds the read lock end to end) either
		// ran entirely before this registration — then the epoch read here
		// already reflects that pass's snapshot, so its event is correctly
		// skipped — or starts after it and sees a fully-pinned subscriber.
		sub.since = s.Epoch()
	})
	s.groupMu.Unlock()
	return sub, nil
}

// dropSub unregisters sub (idempotently) and closes its channel with err
// as the terminal Err. Registry removal takes the write lock, so it blocks
// until any in-flight maintenance View over the group returns — after
// removal no maintenance pass can see the subscriber, making the close
// race-free by construction rather than by per-send checking.
func (s *System) dropSub(sub *Subscription, err error) {
	s.groupMu.Lock()
	if existed, remaining := s.subs.Remove(sub.fp, sub.id); existed && remaining == 0 {
		delete(s.groups, sub.fp)
	}
	s.groupMu.Unlock()
	sub.mu.Lock()
	if !sub.closed {
		sub.closed = true
		sub.err = err
		close(sub.ch)
	}
	sub.mu.Unlock()
}

// Subscriptions returns the number of live subscriptions.
func (s *System) Subscriptions() int { return s.subs.Len() }

// SubscriptionGroups returns the number of distinct patterns (canonical
// fingerprints) with live subscriptions — the number of shared delta runs
// each Apply pays.
func (s *System) SubscriptionGroups() int { return s.subs.NumGroups() }

// MaintenanceStats returns the cumulative standing-query maintenance
// counters: shared runs vs served subscribers is the amortisation, shed
// and disconnected the back-pressure outcomes.
func (s *System) MaintenanceStats() MaintenanceSummary { return s.maint.Snapshot() }

// maintainSubscriptions runs after every Apply (under applyMu, so passes
// are serialised): one shared delta enumeration per live pattern group on
// the freshly-installed snapshot, fanned out to the group's subscribers.
func (s *System) maintainSubscriptions(next *snapshot) {
	if s.subs.Len() == 0 {
		return
	}
	s.maint.Applies.Add(1)
	epoch := next.epoch()
	fps := s.subs.Fingerprints()
	// Distinct pattern groups are independent — separate registry groups,
	// separate flows, disjoint subscribers — so they maintain concurrently:
	// with the usual many-subscribers-few-patterns population the wall
	// clock per Apply is the slowest group's run, not the sum.
	workers := min(len(fps), maxGroupWorkers)
	var wg sync.WaitGroup
	work := make(chan string)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for fp := range work {
				s.maintainFingerprint(next, epoch, fp)
			}
		}()
	}
	for _, fp := range fps {
		work <- fp
	}
	close(work)
	wg.Wait()
}

// maxGroupWorkers caps how many pattern groups maintain concurrently per
// Apply. Each group's delta run already fans across the cluster's
// machines/workers, so a small factor suffices to hide group skew.
const maxGroupWorkers = 4

// maintainFingerprint serves one pattern group for one epoch.
func (s *System) maintainFingerprint(next *snapshot, epoch uint64, fp string) {
	// Snapshot the group state before entering the registry read section:
	// groupMu must never be acquired inside View (a Subscribe holding
	// groupMu while waiting on the registry write lock would deadlock
	// against it). Copying the variant headers is enough — existing
	// entries are immutable; variants appended after this point belong to
	// subscribers pinned at this epoch, which the since-check skips.
	s.groupMu.Lock()
	g := s.groups[fp]
	var flows []*dataflow.Dataflow
	var vars [][]int
	if g != nil {
		flows = g.flows
		vars = append([][]int(nil), g.variants...)
	}
	s.groupMu.Unlock()
	if g == nil {
		return
	}
	var drops []*Subscription
	s.subs.View(fp, func(members map[uint64]*Subscription) {
		drops = s.maintainGroup(next, epoch, flows, vars, members)
	})
	// Disconnects take the registry write lock; View must be over.
	for _, sub := range drops {
		s.maint.Disconnected.Add(1)
		s.dropSub(sub, ErrSlowConsumer)
	}
}

// maintainGroup serves one pattern group for one epoch: survey the
// eligible members, run the group's cached delta flows ONCE, re-index the
// payload per numbering variant, and deliver without blocking. Returns the
// subscribers to disconnect (SubDisconnect policy with a full buffer).
func (s *System) maintainGroup(sn *snapshot, epoch uint64, flows []*dataflow.Dataflow, vars [][]int, members map[uint64]*Subscription) (drops []*Subscription) {
	live := make([]*Subscription, 0, len(members))
	bounded := true
	maxLimit := 0
	for _, sub := range members {
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
	_, err := s.runDeltaFlows(context.Background(), sn, flows, run{fn: collect(&newM), budget: budget}, collect(&deadM))
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
	newByVar := make([][][]VertexID, len(vars))
	deadByVar := make([][][]VertexID, len(vars))
	for _, sub := range live {
		if v := sub.variant; v < len(vars) && (v == 0 || newByVar[v] == nil) {
			newByVar[v] = remapMatches(vars[v], newM)
			deadByVar[v] = remapMatches(vars[v], deadM)
		}
	}

	// Fan out in chunks across workers: delivery is one non-blocking send
	// per subscriber, so at 100K subscribers the loop is bound by channel
	// ops and Subscription cache misses, not by anything shared — chunking
	// it keeps per-Apply fan-out latency flat as populations grow. Each
	// subscriber belongs to exactly one chunk, so pendingMissed stays
	// single-writer; the counters are atomic.
	deliver := func(lo, hi int, drops *[]*Subscription) {
		for _, sub := range live[lo:hi] {
			if sub.variant >= len(vars) {
				continue // defensive: a this-epoch joiner is already excluded by since
			}
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
					*drops = append(*drops, sub)
				} else {
					sub.pendingMissed++
					sub.shed.Add(1)
					s.maint.ShedEvents.Add(1)
				}
			}
		}
	}
	workers := (len(live) + fanoutChunk - 1) / fanoutChunk
	if workers > maxFanoutWorkers {
		workers = maxFanoutWorkers
	}
	if workers <= 1 {
		deliver(0, len(live), &drops)
		return drops
	}
	per := (len(live) + workers - 1) / workers
	dropsBy := make([][]*Subscription, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * per
		hi := min(lo+per, len(live))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			deliver(lo, hi, &dropsBy[w])
		}(w, lo, hi)
	}
	wg.Wait()
	for _, d := range dropsBy {
		drops = append(drops, d...)
	}
	return drops
}

// fanoutChunk is the per-worker fan-out quantum; populations under one
// chunk deliver inline with no goroutines.
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
