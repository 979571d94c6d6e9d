package huge

// Session is the serving-layer handle of a System: one client's view of
// the shared query service. Sessions are cheap (no partitioning, no cache
// allocation — all per-run state is created per query) and safe for
// concurrent use; a server would typically create one Session per
// connection and let them all hit the same System, sharing its plan cache
// while keeping per-run metrics isolated.

import (
	"context"
	"sync"
	"time"
)

// Session is a per-client handle onto a shared System. The zero value is
// not usable; create one with System.NewSession.
//
// A Session is pinned to the graph snapshot that was current when it was
// created: updates applied to the System (System.Apply) are invisible to
// it until Refresh, so a client always observes one consistent graph
// version across its queries — repeatable reads at the serving layer.
type Session struct {
	sys *System

	mu          sync.Mutex
	snap        *snapshot // pinned graph version
	prio        int       // default admission priority (SetPriority)
	queries     uint64
	errors      uint64
	results     uint64
	cachedPlans uint64
	elapsed     time.Duration
}

// NewSession creates a client handle pinned to the current snapshot. Any
// number of sessions may run queries concurrently on one System.
func (s *System) NewSession() *Session { return &Session{sys: s, snap: s.snapshot()} }

// System returns the shared query service this session runs on.
func (se *Session) System() *System { return se.sys }

// pinned returns the session's snapshot.
func (se *Session) pinned() *snapshot {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.snap
}

// Epoch returns the version of the snapshot this session is pinned to.
func (se *Session) Epoch() uint64 { return se.pinned().epoch() }

// Graph returns the data graph of the snapshot this session is pinned to —
// the live version for a NewSession pin, a historical one for System.AsOf.
func (se *Session) Graph() *Graph { return se.pinned().g }

// SetPriority sets the session's default admission priority on a governed
// System: every Exec from this session uses it unless the call carries its
// own Priority option. Higher means preferred under saturation (see
// Priority); the initial default is 0. On an ungoverned System the weight
// is accepted and ignored.
func (se *Session) SetPriority(p int) {
	se.mu.Lock()
	se.prio = p
	se.mu.Unlock()
}

// priority returns the session's default admission priority.
func (se *Session) priority() int {
	se.mu.Lock()
	defer se.mu.Unlock()
	return se.prio
}

// Refresh re-pins the session to the System's current snapshot and
// returns its epoch. In-flight queries finish on the version they started
// on; subsequent queries observe every update applied so far.
func (se *Session) Refresh() uint64 {
	sn := se.sys.snapshot()
	se.mu.Lock()
	se.snap = sn
	se.mu.Unlock()
	return sn.epoch()
}

// SessionStats summarises the queries a session has run.
type SessionStats struct {
	Queries     uint64 // completed runs (successful or not)
	Errors      uint64 // runs that returned an error (incl. cancellations)
	Results     uint64 // total matches across successful runs
	CachedPlans uint64 // successful runs served with a memoised plan
	Elapsed     time.Duration
}

// Stats returns the session's accumulated counters.
func (se *Session) Stats() SessionStats {
	se.mu.Lock()
	defer se.mu.Unlock()
	return SessionStats{
		Queries:     se.queries,
		Errors:      se.errors,
		Results:     se.results,
		CachedPlans: se.cachedPlans,
		Elapsed:     se.elapsed,
	}
}

func (se *Session) record(res Result, err error) {
	se.mu.Lock()
	defer se.mu.Unlock()
	se.queries++
	if err != nil {
		se.errors++
		return
	}
	se.results += res.Count
	if res.PlanCached {
		se.cachedPlans++
	}
	se.elapsed += res.Elapsed
}

// MatchPattern parses a Cypher-flavoured pattern and counts its matches.
func (se *Session) MatchPattern(ctx context.Context, name, pattern string) (Result, map[string]int, error) {
	q, names, err := ParsePattern(name, pattern)
	if err != nil {
		return Result{}, nil, err
	}
	res, err := se.Exec(ctx, q, CountOnly()).Wait()
	return res, names, err
}
