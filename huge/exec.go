package huge

// Exec is the one core query entry point of the serving layer. Every public
// way of running a query — counting, enumerating, a hand-picked plan, a
// delta view, top-k — is Exec plus options.
//
//	st := sys.Exec(ctx, q, huge.Limit(10))   // engine-side top-k
//	for m := range st.Matches() {            // pull-based match stream
//	    fmt.Println(m)                       // (break aborts the engine run)
//	}
//	res, err := st.Wait()                    // the run's Result
//
// A Limit(k) is enforced inside the engine: a shared atomic match budget
// halts source scans, extends, the compressed counting path and DELTA-SCAN
// flows at their next batch boundary once k matches are claimed, so the
// run produces exactly min(k, total) matches without enumerating the rest.

import (
	"context"
	"errors"
	"fmt"
	"iter"
	"time"

	"repro/internal/dataflow"
	"repro/internal/engine"
)

// streamBufferRows is the match-channel capacity of a streaming Exec: big
// enough to decouple the engine's batch production from the consumer, small
// enough that an unconsumed stream applies backpressure instead of
// buffering the whole result.
const streamBufferRows = 1024

// Option configures one Exec call. Options compose; conflicting ones
// (CountOnly with OnMatch) surface as an error from Stream.Wait.
type Option func(*execOptions)

type execOptions struct {
	limit     int // -1 = unlimited
	plan      *Plan
	countOnly bool
	timeout   time.Duration
	onMatch   func(match []VertexID)
	group     *dataflow.GroupSpec // GroupBy key (nil = plain run)
	hist      int                 // Histogram buckets (0 = none)
	topGroups int                 // TopGroups k (0 = full table)
	prio      int                 // admission priority (Priority option)
	prioSet   bool                // Priority given (else the session default)
	memRows   int64               // per-run memory budget (MemoryBudget option)
	memSet    bool                // MemoryBudget given (else the governed default)
	optErr    error               // first invalid option, reported by the Stream
}

func (o *execOptions) fail(err error) {
	if o.optErr == nil {
		o.optErr = err
	}
}

// Limit stops the query after k matches, engine-side: source scans,
// extends, compressed counting and delta flows all halt cooperatively once
// a shared match budget is exhausted, so exactly min(k, total) matches are
// produced (and counted) without enumerating the rest. Limit(0) runs
// nothing and reports zero matches.
//
// On a delta-mode query the limit applies to the stream of NEW matches;
// the vanished-match side is skipped entirely, so Result.DeltaDead and
// Result.Delta stay zero under a limit.
func Limit(k int) Option {
	return func(o *execOptions) {
		if k < 0 {
			o.fail(fmt.Errorf("huge: Limit(%d): k must be >= 0", k))
			return
		}
		o.limit = k
	}
}

// WithPlan runs the query with a specific execution plan instead of the
// plan-cache-backed optimal one. The plan is used as given (treat it as
// immutable — it may be shared with the cache). Exec rejects it with
// ErrInvalidOption when it does not serve the query: a plan for another
// pattern, or — when the run delivers matches or groups — one in another
// vertex numbering (System.PlanFor(q, …) always serves q). Delta-mode
// queries reject it too, since they always use the difference rewriting.
func WithPlan(p *Plan) Option {
	return func(o *execOptions) {
		if p == nil {
			o.fail(errors.New("huge: WithPlan(nil)"))
			return
		}
		o.plan = p
	}
}

// CountOnly asks for the match count only: no match is materialised to the
// Stream, which lets the engine use the compressed counting path (counting
// a pipeline's independent tail in closed form from candidate sets), and
// lets the plan break the pattern's symmetry where it counts fastest
// (plan.TranslateCount), with or without Limit. Stream.Next reports
// exhaustion immediately; use Stream.Wait for the Result.
func CountOnly() Option {
	return func(o *execOptions) { o.countOnly = true }
}

// Timeout aborts the run if it exceeds d, as if the caller's context had
// been cancelled: Stream.Wait returns context.DeadlineExceeded.
func Timeout(d time.Duration) Option {
	return func(o *execOptions) {
		if d <= 0 {
			o.fail(fmt.Errorf("huge: Timeout(%v): duration must be positive", d))
			return
		}
		o.timeout = d
	}
}

// OnMatch delivers matches through fn instead of the Stream's pull
// iterator: fn receives every match (indexed by query vertex), is called
// concurrently from the engine's workers, and must be cheap and
// goroutine-safe; the slice is only valid during the call. Use it when
// callback dispatch is preferable to channel hand-off. Mutually exclusive
// with CountOnly.
func OnMatch(fn func(match []VertexID)) Option {
	return func(o *execOptions) {
		if fn == nil {
			o.fail(errors.New("huge: OnMatch(nil)"))
			return
		}
		o.onMatch = fn
	}
}

// Priority sets the run's admission priority on a governed System
// (Options.Governor): higher-priority requests are granted run slots first
// when the system is saturated (with a periodic grant to the lowest
// waiting class, so low priority means "yield under load", never
// starvation), and lower-priority runs are preferred as victims when the
// global memory envelope forces shedding. A priority of at least
// GovernorConfig.ExpressPriority may also claim a reserved express slot
// (ExpressSlots) instead of queueing. Any int is a valid priority; the
// default is 0, or the session's SetPriority value. On an ungoverned
// System the option is accepted and ignored.
func Priority(p int) Option {
	return func(o *execOptions) {
		o.prio = p
		o.prioSet = true
	}
}

// MemoryBudget caps this run's live intermediate tuples at rows: the
// engine checks the run's live-tuple account at every batch boundary and
// fails the run with ErrMemoryBudget once it exceeds the budget —
// releasing every queued batch and spill file, leaving other runs
// untouched. The overshoot past the budget is bounded by one batch's
// expansion per machine. Overrides the governed default
// (GovernorConfig.RunMemoryRows); works on ungoverned Systems too.
// MemoryBudget(0) removes the governed default (unbudgeted run).
func MemoryBudget(rows int64) Option {
	return func(o *execOptions) {
		if rows < 0 {
			o.fail(fmt.Errorf("huge: MemoryBudget(%d): rows must be >= 0", rows))
			return
		}
		o.memRows = rows
		o.memSet = true
	}
}

// Stream is a running query: a pull iterator over its matches and the
// carrier of its final Result. It is returned immediately by Exec while the
// engine runs in the background; consuming slower than the engine produces
// applies backpressure through the scheduler's bounded queues.
//
// A Stream must be terminated by exhausting it (Next returning false, or a
// completed Matches loop), by Wait, or by Close — otherwise the engine
// goroutines stay blocked on the unconsumed matches. Breaking out of a
// Matches loop closes the stream automatically; after Next-style
// consumption that stops early, call Close. Close (and a cancelled context,
// and an expired Timeout) aborts the engine run, which drains its queues,
// joins every goroutine and removes any spill files before Wait returns.
//
// For a CountOnly or OnMatch run the iterator is empty by construction and
// the Stream is just the Result carrier.
type Stream struct {
	rows   chan []VertexID
	done   chan struct{}
	cancel context.CancelFunc

	// res/err are written by the run goroutine before done is closed and
	// must only be read after <-done.
	res Result
	err error
}

// Next returns the next match, indexed by query vertex, or ok=false once
// the stream is exhausted (run complete, limit reached, aborted, or a
// CountOnly/OnMatch run). The returned slice is owned by the caller.
func (st *Stream) Next() (match []VertexID, ok bool) {
	m, ok := <-st.rows
	return m, ok
}

// Matches returns the stream as a range-able iterator:
//
//	for m := range st.Matches() { ... }
//
// Breaking out of the loop closes the stream (aborting the engine run), so
// an early exit never leaks goroutines or spill files.
func (st *Stream) Matches() iter.Seq[[]VertexID] {
	return func(yield func([]VertexID) bool) {
		for m := range st.rows {
			if !yield(m) {
				st.Close()
				return
			}
		}
	}
}

// Wait blocks until the run completes and returns its Result. Matches not
// consumed through Next/Matches are discarded (they are still counted).
// Wait may be called any number of times, from any goroutine.
//
// On a governed System (Options.Governor) the error taxonomy is typed —
// test with errors.Is:
//
//   - ErrOverloaded: the run was shed (admission queue full, global memory
//     envelope exceeded at arrival, or cancelled mid-run as a shedding
//     victim). Back off and retry.
//   - ErrMemoryBudget: the run exceeded its own memory budget
//     (MemoryBudget option or GovernorConfig.RunMemoryRows) and was halted
//     at a batch boundary; other runs are unaffected.
//   - ErrInvalidOption: the Exec call itself was malformed (option
//     validation failed before any work started).
//   - context.Canceled / context.DeadlineExceeded: the caller's context
//     (or the Timeout option) ended the run.
func (st *Stream) Wait() (Result, error) {
	for range st.rows {
	}
	<-st.done
	return st.res, st.err
}

// Close abandons the stream: it aborts the engine run (as a context cancel
// would), waits for every engine goroutine to drain and exit, and returns
// the terminal Result — the run's own if it had already completed, the
// cancellation error otherwise. Closing a finished or already-closed
// stream is a no-op.
func (st *Stream) Close() (Result, error) {
	st.cancel()
	return st.Wait()
}

// doneStream builds an already-terminated Stream (option errors).
func doneStream(err error) *Stream {
	st := &Stream{rows: make(chan []VertexID), done: make(chan struct{}), cancel: func() {}, err: err}
	close(st.rows)
	close(st.done)
	return st
}

// Exec starts q on the current snapshot and returns its Stream. The default
// mode streams every match through the Stream's pull iterator; CountOnly,
// OnMatch, Limit, WithPlan and Timeout adjust it. Cancelling ctx aborts the
// run. Exec is safe for any number of concurrent callers; like the rest of
// the System API, each run gets an isolated execution context and shares
// the fingerprint-keyed plan cache.
func (s *System) Exec(ctx context.Context, q *Query, opts ...Option) *Stream {
	return s.exec(ctx, s.snapshot(), q, nil, 0, opts)
}

// Exec starts q against the session's pinned snapshot and returns its
// Stream (see System.Exec). The run is recorded in the session's Stats
// when it completes, and inherits the session's default admission
// priority (SetPriority) unless the call carries a Priority option.
func (se *Session) Exec(ctx context.Context, q *Query, opts ...Option) *Stream {
	return se.sys.exec(ctx, se.pinned(), q, se.record, se.priority(), opts)
}

// exec validates options, sets up the Stream and launches the run
// goroutine. onDone, when set, observes the terminal (Result, error) —
// the session stats hook. defPrio is the admission priority used when no
// Priority option is given (the session default).
func (s *System) exec(ctx context.Context, sn *snapshot, q *Query, onDone func(Result, error), defPrio int, opts []Option) *Stream {
	eo := execOptions{limit: -1, prio: defPrio}
	for _, opt := range opts {
		opt(&eo)
	}
	if eo.optErr == nil && q == nil {
		eo.optErr = errors.New("huge: Exec of a nil query")
	}
	if eo.optErr == nil && eo.countOnly && eo.onMatch != nil {
		eo.optErr = errors.New("huge: CountOnly and OnMatch are mutually exclusive")
	}
	if eo.optErr == nil && eo.group == nil && (eo.hist > 0 || eo.topGroups > 0) {
		eo.optErr = errors.New("huge: Histogram and TopGroups require GroupBy")
	}
	if eo.optErr == nil && eo.group != nil {
		if eo.onMatch != nil {
			eo.optErr = errGroupWithOnMatch
		} else {
			eo.optErr = validateGroup(eo.group, q)
		}
	}
	if eo.optErr != nil {
		// Every validation failure wears the ErrInvalidOption sentinel, so
		// callers can distinguish misuse from runtime failure with errors.Is
		// instead of matching message strings.
		err := fmt.Errorf("%w: %w", ErrInvalidOption, eo.optErr)
		if onDone != nil {
			onDone(Result{}, err)
		}
		return doneStream(err)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// The run context always carries a cancel cause, so the governor's
	// victim shedding can mark its cancellations (the cause resurfaces from
	// Wait as ErrOverloaded); Timeout layers a deadline on top.
	runCtx, cancelCause := context.WithCancelCause(ctx)
	cancel := func() { cancelCause(nil) }
	if eo.timeout > 0 {
		var tcancel context.CancelFunc
		runCtx, tcancel = context.WithTimeout(runCtx, eo.timeout)
		base := cancel
		cancel = func() { tcancel(); base() }
	}

	// A grouped run is a counting run: like CountOnly, no match reaches the
	// Stream (the engine's compressed path never builds them).
	streaming := !eo.countOnly && eo.onMatch == nil && eo.group == nil
	buf := streamBufferRows
	if eo.limit >= 0 && eo.limit < buf {
		buf = eo.limit
	}
	st := &Stream{rows: make(chan []VertexID, buf), done: make(chan struct{}), cancel: cancel}

	var budget *engine.Budget
	if eo.limit >= 0 {
		budget = engine.NewBudget(uint64(eo.limit))
	}
	fn := eo.onMatch
	if streaming {
		// The channel send races against cancellation so an abandoned
		// stream never wedges an engine worker: Close cancels runCtx, which
		// unblocks every sender, and the engine then drains and exits.
		fn = func(m []VertexID) {
			select {
			case st.rows <- m:
			case <-runCtx.Done():
			}
		}
	} else {
		close(st.rows) // Next reports exhaustion immediately
	}

	// Governance handle: carries the run's priority, per-run memory budget
	// (the option, else the governed default) and cancel-cause hook. Nil
	// for the plain ungoverned, unbudgeted case.
	memRows := eo.memRows
	if !eo.memSet && s.gov != nil {
		memRows = s.gov.cfg.RunMemoryRows
	}
	var h *govRun
	if s.gov != nil || memRows > 0 {
		h = &govRun{gov: s.gov, prio: eo.prio, memRows: memRows, cancel: cancelCause}
	}

	go func() {
		var res Result
		var err error
		r := run{fn: fn, budget: budget, h: h}
		// Admission runs inside the goroutine so Exec returns the Stream
		// immediately: a queued (or shed) run surfaces through Wait, like
		// every other outcome.
		if gov := s.gov; gov != nil {
			if err = gov.admit(runCtx, h); err == nil {
				gov.register(h)
				res, err = s.execRun(runCtx, sn, q, &eo, r)
				gov.release(h)
				err = gov.mapErr(runCtx, err)
			}
		} else {
			res, err = s.execRun(runCtx, sn, q, &eo, r)
		}
		cancel() // release the context/timer; senders are already done
		// The completion hook (session stats) fires before done is closed,
		// so a caller that Waits and then reads Session.Stats observes the
		// run.
		if onDone != nil {
			onDone(res, err)
		}
		st.res, st.err = res, err
		if streaming {
			close(st.rows)
		}
		close(st.done)
	}()
	return st
}

// execRun resolves the plan (the WithPlan one, else cache-backed) and
// executes: the single run path behind Exec.
func (s *System) execRun(ctx context.Context, sn *snapshot, q *Query, eo *execOptions, r run) (Result, error) {
	if eo.group != nil {
		r.gr = newGroupRun(eo, q.IsDelta())
	}
	if q.IsDelta() {
		if eo.plan != nil {
			// A hand-picked plan enumerates the full result; silently
			// running it for a delta view would report Delta == 0 and
			// corrupt any maintained count. Delta mode always uses the
			// difference rewriting.
			return Result{}, fmt.Errorf("%w: delta-mode queries use the difference rewriting; Exec them without WithPlan", ErrInvalidOption)
		}
		return s.runDelta(ctx, sn, q, r)
	}
	// Counting: any plan for the same pattern serves. Match delivery and
	// grouping also need q's vertex numbering (servesQuery).
	numbered := r.fn != nil || r.gr != nil
	p, cached := eo.plan, false
	if p != nil && !servesQuery(p, q, numbered) {
		return Result{}, fmt.Errorf("%w: WithPlan: plan %s for %s does not serve %s", ErrInvalidOption, p.Name, p.Q.Name(), q.Name())
	}
	if p == nil {
		// A limited run prefers the barrier-free left-deep (wco) pipeline
		// over the cost-optimal plan: a PUSH-JOIN must materialise both
		// feeder stages in full before its first output row, so a match
		// budget could only ever halt the final stage — whereas in a single
		// scan-extend pipeline the budget stops every operator at its next
		// batch boundary, cutting work and peak memory by orders of
		// magnitude for small k. (Top-k callers ask for small k; a caller
		// who wants the cost-optimal plan anyway can pass WithPlan.) Both
		// families are memoised under their own cache keys.
		//
		// A grouped run makes the same choice for a different reason: the
		// wco pipeline's final operator is always a plain PULL-EXTEND before
		// the sink, so the compressed counting path — where grouped counts
		// accumulate without materialising matches — always applies.
		family := "optimal"
		if r.budget != nil || r.gr != nil {
			family = "wco"
		}
		p, cached = s.planFor(sn, q, family, numbered)
	}
	res, err := s.runPlan(ctx, sn, p, r)
	res.PlanCached = cached
	return res, err
}
