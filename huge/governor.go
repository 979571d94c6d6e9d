package huge

// Resource governance for the serving layer: a weighted-priority admission
// gate over concurrent Exec runs, per-run and global memory budgets, and
// load shedding — so a System under heavy mixed traffic degrades
// gracefully (queued, then typed fast-fail) instead of letting every
// workload class degrade every other.
//
// The governor composes four mechanisms, all optional via GovernorConfig:
//
//   - Admission: at most MaxConcurrent runs execute at once. Excess
//     requests wait in per-priority FIFO queues; grants go to the highest
//     priority class, with every eighth grant going to the lowest
//     non-empty class so background work is never starved outright. An
//     optional express lane (ExpressSlots) reserves extra slots that only
//     high-priority arrivals may claim, so interactive traffic never
//     waits behind a long-running background enumeration.
//   - Queue shedding: once MaxQueued requests are waiting, new arrivals
//     fast-fail with ErrOverloaded instead of joining a queue that can no
//     longer drain in useful time — unless the arrival outranks the
//     lowest-priority waiter, which is displaced (shed) in its place, so a
//     full queue of background work never locks interactive traffic out.
//   - Per-run memory budgets: each run carries a live-tuple ceiling
//     (RunMemoryRows, or the MemoryBudget option) enforced inside the
//     engine at batch boundaries; exceeding it fails that run with
//     ErrMemoryBudget while the rest of the system is untouched.
//   - Global memory envelope: every governed run's live tuples feed one
//     shared gauge. While the gauge is over GlobalMemoryRows, new
//     arrivals shed with ErrOverloaded, and the governor cancels the
//     lowest-priority in-flight run (largest footprint first) until the
//     system is back under the envelope — shedding, not collapse.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/metrics"
)

// ErrOverloaded is the load-shedding sentinel: Exec returns it (via
// Stream.Wait) when the governed System declines the run — the admission
// queue is at capacity, the global memory envelope is exceeded at arrival,
// or the run was cancelled mid-flight as a shedding victim. It is a
// fast-fail: the caller should back off and retry, not treat the system as
// broken. Test with errors.Is.
var ErrOverloaded = errors.New("huge: system overloaded, request shed")

// ErrMemoryBudget reports that a run exceeded its per-run memory budget
// (the MemoryBudget option or GovernorConfig.RunMemoryRows): the engine
// halted it cooperatively at a batch boundary and released its state.
// Other runs are unaffected. Test with errors.Is.
var ErrMemoryBudget = engine.ErrMemoryBudget

// ErrInvalidOption wraps every Exec option-validation failure (negative
// Limit, nil OnMatch, CountOnly+OnMatch, Histogram without GroupBy, ...),
// so misuse is detectable with errors.Is instead of string matching.
var ErrInvalidOption = errors.New("huge: invalid Exec option")

// GovernorConfig enables resource governance on a System
// (Options.Governor). The zero value of each field selects a sensible
// default; a nil GovernorConfig in Options disables governance entirely
// (every Exec runs immediately, unbudgeted — the historical behaviour).
type GovernorConfig struct {
	// MaxConcurrent is the admitted-run envelope: at most this many Exec
	// runs execute at once; further requests queue at the admission gate.
	// 0 defaults to 2 x GOMAXPROCS.
	MaxConcurrent int
	// MaxQueued bounds the admission queue: beyond it, a new arrival
	// fast-fails with ErrOverloaded — unless it outranks the
	// lowest-priority waiter, which is displaced in its place. 0 defaults
	// to 8 x MaxConcurrent; negative disables queueing entirely (admit or
	// shed, never wait).
	MaxQueued int
	// ExpressSlots reserves extra run slots, beyond MaxConcurrent, that
	// only arrivals with priority >= ExpressPriority may claim — a
	// priority lane that keeps interactive requests from queueing behind
	// long-running background work. 0 disables the lane.
	ExpressSlots int
	// ExpressPriority is the minimum priority for the express lane.
	// 0 defaults to 1 (any positive priority) when ExpressSlots > 0.
	ExpressPriority int
	// GlobalMemoryRows is the cross-run live-tuple envelope: while the
	// shared gauge exceeds it, new arrivals shed and the lowest-priority
	// in-flight run is cancelled with ErrOverloaded. 0 = no global
	// envelope.
	GlobalMemoryRows int64
	// RunMemoryRows is the default per-run live-tuple budget (exceeded =>
	// that run fails with ErrMemoryBudget). 0 = unbudgeted by default;
	// the MemoryBudget Exec option overrides per run either way.
	RunMemoryRows int64
}

func (c GovernorConfig) normalise() GovernorConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxQueued == 0 {
		c.MaxQueued = 8 * c.MaxConcurrent
	}
	if c.MaxQueued < 0 {
		c.MaxQueued = 0
	}
	if c.ExpressSlots > 0 && c.ExpressPriority == 0 {
		c.ExpressPriority = 1
	}
	return c
}

// GovernanceSummary is the cumulative governance counter snapshot of a
// System (System.GovernorStats).
type GovernanceSummary = metrics.GovernanceSummary

// govWaiter is one queued admission request. grant is closed to wake the
// waiter; shed (written before the close, so the channel close publishes
// it) distinguishes displacement from a granted slot.
type govWaiter struct {
	prio    int
	grant   chan struct{}
	gone    bool // abandoned (context cancelled) before granted
	granted bool
	shed    bool // displaced by a higher-priority arrival
}

// govRun is one run's governance handle: what the governor needs to pick
// and cancel shedding victims, and what the run path needs to configure
// its engine runs. gov is nil for a run on an ungoverned System that still
// carries a MemoryBudget option — per-run budgets work without a governor.
type govRun struct {
	gov     *governor
	prio    int
	express bool  // admitted through the reserved express lane
	memRows int64 // per-run budget (0 = none)
	cancel  context.CancelCauseFunc
	// cur is the run's current execution context's metrics — delta runs go
	// through several — so the victim picker can rank by live footprint.
	cur atomic.Pointer[metrics.Metrics]
}

// attach wires one engine execution context into the governed run: its
// live tuples feed the global gauge and its metrics become the run's
// current footprint. A delta run attaches several contexts in sequence;
// each superseded one has its batch-sizing decisions folded into the
// system-wide governance counters (the last is folded at release).
func (h *govRun) attach(m *metrics.Metrics) {
	if h == nil {
		return
	}
	if h.gov != nil {
		m.Shared = h.gov.gauge // nil without a global envelope: no-op
	}
	if prev := h.cur.Swap(m); prev != nil && h.gov != nil {
		h.gov.foldBatch(prev)
	}
}

// governor is the runtime behind GovernorConfig: one per governed System.
type governor struct {
	cfg   GovernorConfig
	gauge *metrics.Gauge // nil without a global envelope
	stats metrics.Governance

	mu       sync.Mutex
	running  int
	express  int          // express-lane slots in use
	waiters  []*govWaiter // FIFO per arrival; grants pick by priority
	grants   uint64       // anti-starvation rotation counter
	active   map[*govRun]struct{}
	shedding atomic.Bool // one victim-shedding loop at a time
}

func newGovernor(cfg GovernorConfig) *governor {
	g := &governor{cfg: cfg.normalise(), active: map[*govRun]struct{}{}}
	if g.cfg.GlobalMemoryRows > 0 {
		g.gauge = metrics.NewGauge(g.cfg.GlobalMemoryRows, g.memPressure)
	}
	return g
}

// admit blocks until the request holds a run slot, or fails fast with
// ErrOverloaded (queue full / global memory over envelope) or the
// context's error. Callers must pair a nil return with release, which
// reads h.express to return the right slot.
func (g *governor) admit(ctx context.Context, h *govRun) error {
	prio := h.prio
	if g.gauge != nil && g.gauge.Over() {
		g.stats.ShedMemory.Add(1)
		return fmt.Errorf("%w (global memory envelope exceeded)", ErrOverloaded)
	}
	g.mu.Lock()
	if g.running < g.cfg.MaxConcurrent && len(g.waiters) == 0 {
		g.running++
		g.stats.Admitted.Add(1)
		g.mu.Unlock()
		return nil
	}
	// Normal slots busy (or contended): a high-priority arrival may claim
	// a reserved express slot instead of queueing behind background work.
	if g.cfg.ExpressSlots > 0 && prio >= g.cfg.ExpressPriority && g.express < g.cfg.ExpressSlots {
		g.express++
		h.express = true
		g.stats.Admitted.Add(1)
		g.mu.Unlock()
		return nil
	}
	if g.queuedLocked() >= g.cfg.MaxQueued {
		// Full queue: shed the arrival — unless it outranks the
		// lowest-priority waiter, which is displaced to make room. Either
		// way exactly one request sheds.
		low := -1
		for i, qw := range g.waiters {
			if qw.gone || qw.granted {
				continue
			}
			if low < 0 || qw.prio < g.waiters[low].prio {
				low = i
			}
		}
		if low < 0 || g.waiters[low].prio >= prio {
			g.stats.ShedQueue.Add(1)
			g.mu.Unlock()
			return fmt.Errorf("%w (admission queue full)", ErrOverloaded)
		}
		v := g.waiters[low]
		v.shed = true
		close(v.grant)
		g.waiters = append(g.waiters[:low], g.waiters[low+1:]...)
		g.stats.ShedQueue.Add(1)
	}
	w := &govWaiter{prio: prio, grant: make(chan struct{})}
	g.waiters = append(g.waiters, w)
	g.grantLocked() // a slot may be free with only lower-priority waiters queued
	g.mu.Unlock()

	select {
	case <-w.grant:
		if w.shed { // published by the close in the displacement path
			return fmt.Errorf("%w (displaced from the admission queue by a higher-priority arrival)", ErrOverloaded)
		}
		g.stats.Admitted.Add(1)
		g.stats.Waited.Add(1)
		return nil
	case <-ctx.Done():
		g.mu.Lock()
		if w.granted {
			// Granted concurrently with cancellation: the slot is ours, so
			// hand it back through the normal release path.
			g.running--
			g.grantLocked()
			g.mu.Unlock()
			return ctx.Err()
		}
		w.gone = true
		g.mu.Unlock()
		return ctx.Err()
	}
}

// queuedLocked counts live (non-abandoned) waiters.
func (g *governor) queuedLocked() int {
	n := 0
	for _, w := range g.waiters {
		if !w.gone {
			n++
		}
	}
	return n
}

// grantLocked hands free slots to waiters: highest priority first (FIFO
// within a class), except that every eighth grant goes to the lowest
// non-empty class — the anti-starvation rotation that keeps a flood of
// high-priority interactive work from parking background enumerations
// forever.
func (g *governor) grantLocked() {
	for g.running < g.cfg.MaxConcurrent {
		best := -1
		pickLow := g.grants%8 == 7
		for i, w := range g.waiters {
			if w.gone || w.granted {
				continue
			}
			if best < 0 ||
				(!pickLow && w.prio > g.waiters[best].prio) ||
				(pickLow && w.prio < g.waiters[best].prio) {
				best = i
			}
		}
		if best < 0 {
			// Nothing grantable: drop abandoned/granted entries.
			g.waiters = g.waiters[:0]
			return
		}
		w := g.waiters[best]
		w.granted = true
		g.waiters = append(g.waiters[:best], g.waiters[best+1:]...)
		g.running++
		g.grants++
		close(w.grant)
	}
}

// register records an admitted run so it can be picked as a shedding
// victim; release undoes both the registration and the admission slot.
func (g *governor) register(h *govRun) {
	g.mu.Lock()
	g.active[h] = struct{}{}
	g.mu.Unlock()
}

func (g *governor) release(h *govRun) {
	if m := h.cur.Load(); m != nil {
		g.foldBatch(m)
	}
	g.mu.Lock()
	delete(g.active, h)
	if h.express {
		g.express--
	} else {
		g.running--
		g.grantLocked()
	}
	g.mu.Unlock()
}

// foldBatch accumulates one finished execution context's adaptive
// batch-sizing decisions into the system-wide counters.
func (g *governor) foldBatch(m *metrics.Metrics) {
	g.stats.BatchGrows.Add(m.BatchGrows.Load())
	g.stats.BatchShrinks.Add(m.BatchShrinks.Load())
}

// memPressure is the gauge's over-callback, fired from AddLiveTuples —
// the hottest path in the engine — so it must be one CAS in the common
// case. The first crossing hands off to a shedding goroutine; further
// crossings while it runs are no-ops.
func (g *governor) memPressure() {
	if g.shedding.CompareAndSwap(false, true) {
		go g.shedLoop()
	}
}

// shedLoop cancels the lowest-priority (then largest-footprint) in-flight
// run, waits for the pressure to ease or the victim to drain, and repeats
// until the gauge is back under the envelope. Runs in its own goroutine,
// at most one at a time.
func (g *governor) shedLoop() {
	defer g.shedding.Store(false)
	cancelled := map[*govRun]struct{}{}
	for g.gauge.Over() {
		g.mu.Lock()
		var victim *govRun
		var victimLive int64
		for h := range g.active {
			if _, done := cancelled[h]; done {
				continue
			}
			live := int64(0)
			if m := h.cur.Load(); m != nil {
				live = m.LiveTuples()
			}
			if victim == nil || h.prio < victim.prio ||
				(h.prio == victim.prio && live > victimLive) {
				victim, victimLive = h, live
			}
		}
		g.mu.Unlock()
		if victim == nil {
			// Every active run is already cancelled and draining (or none
			// exist): nothing more to shed, let the drains land.
			return
		}
		victim.cancel(ErrOverloaded)
		cancelled[victim] = struct{}{}
		g.stats.Victims.Add(1)
		// Give the victim's batch-boundary halt time to retire tuples
		// before deciding whether another victim is needed.
		for i := 0; i < 100 && g.gauge.Over(); i++ {
			if _, alive := g.activeHas(victim); !alive {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
}

func (g *governor) activeHas(h *govRun) (struct{}, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	_, ok := g.active[h]
	return struct{}{}, ok
}

// mapErr rewrites a governed run's terminal error: a cancellation whose
// cause was the shedding loop surfaces as ErrOverloaded, and per-run
// budget failures are tallied.
func (g *governor) mapErr(ctx context.Context, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, context.Canceled) {
		if cause := context.Cause(ctx); errors.Is(cause, ErrOverloaded) {
			return fmt.Errorf("%w (run cancelled under global memory pressure)", ErrOverloaded)
		}
	}
	if errors.Is(err, ErrMemoryBudget) {
		g.stats.MemBudgetFails.Add(1)
	}
	return err
}

// snapshot builds the public stats view.
func (g *governor) snapshot() GovernanceSummary {
	s := g.stats.Snapshot()
	g.mu.Lock()
	s.Running = g.running + g.express
	s.Waiting = g.queuedLocked()
	g.mu.Unlock()
	if g.gauge != nil {
		s.GlobalLive = g.gauge.Live()
		s.GlobalPeak = g.gauge.Peak()
	}
	return s
}

// GovernorStats reports the cumulative governance counters and the
// instantaneous gate/gauge state of a governed System. All fields are zero
// when governance is disabled (Options.Governor == nil).
func (s *System) GovernorStats() GovernanceSummary {
	if s.gov == nil {
		return GovernanceSummary{}
	}
	return s.gov.snapshot()
}
