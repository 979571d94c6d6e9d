package huge

// Persistence & time travel: a System can be backed by a durable store
// (internal/store) — a directory holding checksummed CSR snapshots plus
// a write-ahead epoch log of every Apply. Create starts one, Open recovers
// one after a restart (or crash) without re-reading the edge list, Save
// forces a compaction, and AsOf pins a Session to any logged historical
// epoch. Recovery is exact: the replayed statistics chain is bit-equal to
// the live system's (same Fingerprint), and the plan cache re-warms from
// the persisted query specs.

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/plan"
	"repro/internal/query"
	"repro/internal/store"
)

// PersistConfig tunes the durable store attached by Create and Open. The
// zero value is a sensible durable default: fsync on every Apply,
// automatic compaction, full history kept.
type PersistConfig struct {
	// NoSync skips the per-Apply fsync for bulk loads; a crash may lose
	// the most recent epochs (recovery still lands on a consistent one).
	NoSync bool
	// CompactEvery / CompactBytes tune automatic log compaction (0 =
	// store defaults; negative disables that trigger). See store.Options.
	CompactEvery int
	CompactBytes int64
	// DropHistory prunes files older than each new compaction snapshot,
	// bounding disk at the cost of AsOf epochs before it. Default keeps
	// everything since Create, so every logged epoch stays AsOf-able.
	DropHistory bool
}

func (c *PersistConfig) storeOptions() store.Options {
	if c == nil {
		return store.Options{}
	}
	return store.Options{
		NoSync:       c.NoSync,
		CompactEvery: c.CompactEvery,
		CompactBytes: c.CompactBytes,
		DropHistory:  c.DropHistory,
	}
}

// StoreExists reports whether dir already holds a persistent store, so
// callers can choose between Create (fresh ingest) and Open (recovery).
func StoreExists(dir string) bool { return store.Exists(dir) }

// Create deploys g exactly like NewSystem and additionally roots a
// persistent store in dir (which must not already hold one): the initial
// snapshot is written immediately, and every subsequent Apply writes
// through the store's epoch log before installing — so a crash at any
// point recovers via Open to an epoch clients actually observed.
func Create(dir string, g *Graph, opts Options) (*System, error) {
	s := NewSystem(g, opts)
	sn := s.snapshot()
	st, err := store.Create(dir, s.snapshotData(sn), s.opts.Persist.storeOptions())
	if err != nil {
		return nil, err
	}
	s.st = st
	return s, nil
}

// Open recovers the System persisted in dir at its latest durable epoch:
// the newest snapshot whose every byte verifies is read once, the epoch
// log's remaining deltas are replayed once through the exact
// incremental maintenance path the live system ran — so the recovered
// statistics fingerprint is byte-equal to the pre-crash one — and the
// plan cache is re-warmed from the persisted plan specs. The original
// edge list is never touched. Subsequent Applies append to the log.
//
// The recovered snapshot carries no delta views: Exec of a Query.Delta()
// view right after Open reports an empty delta (epoch transitions are not
// replayed as pinned edge sets), exactly like a freshly built System.
func Open(dir string, opts Options) (*System, error) {
	st, err := store.Open(dir, opts.Persist.storeOptions())
	if err != nil {
		return nil, err
	}
	rec, err := st.Recover()
	if err != nil {
		st.Close()
		return nil, err
	}
	// The recovered statistics are deployed verbatim — NOT recomputed — so
	// the stats fingerprint (and with it every plan-cache key) matches the
	// pre-restart system bit for bit.
	s := newSystem(rec.Graph, rec.Stats, opts, st)
	s.rewarmPlans(rec.Plans)
	return s, nil
}

// rewarmPlans re-optimises every persisted plan spec against the
// recovered snapshot. Re-running the optimiser (cheap, milliseconds per
// pattern) rather than persisting plans keeps the cache trivially sound:
// a plan can never outlive the statistics and configuration it was built
// for. A spec naming no plan family builds nothing.
func (s *System) rewarmPlans(specs []store.PlanSpec) {
	sn := s.snapshot()
	for _, spec := range specs {
		q := query.NewEdgeLabeled(spec.Name, spec.Edges, spec.VLabels, spec.ELabels)
		s.planFor(sn, q, spec.Family, false)
	}
}

// snapshotData gathers everything one store snapshot persists from sn:
// the compacted CSR, the exact statistics, and the identity of every
// cached plan (so recovery can re-warm the cache).
func (s *System) snapshotData(sn *snapshot) store.SnapshotData {
	return store.SnapshotData{
		CSR:   sn.g.Export(),
		Stats: sn.stats,
		Plans: s.planSpecs(),
	}
}

// planSpecs captures the (query, family) identity of each cached plan.
// Delta-view twins are skipped (they are derived per-run), and duplicates
// collapse; order is deterministic for reproducible snapshot bytes.
func (s *System) planSpecs() []store.PlanSpec {
	type specID struct{ family, queryFP string }
	seen := map[specID]bool{}
	var specs []store.PlanSpec
	s.plans.Each(func(key plan.Key, p *Plan) {
		q := p.Q
		if q == nil || q.IsDelta() {
			return
		}
		id := specID{key.Family, q.Fingerprint()}
		if seen[id] {
			return
		}
		seen[id] = true
		spec := store.PlanSpec{
			Family:  key.Family,
			Name:    q.Name(),
			NumV:    q.NumVertices(),
			Edges:   q.Edges(),
			VLabels: append([]int(nil), q.VertexLabels()...),
		}
		if q.EdgeLabeled() {
			spec.ELabels = make([]int, len(spec.Edges))
			for i := range spec.Edges {
				spec.ELabels[i] = q.EdgeLabelAt(i)
			}
		}
		specs = append(specs, spec)
	})
	sort.Slice(specs, func(i, j int) bool {
		if specs[i].Family != specs[j].Family {
			return specs[i].Family < specs[j].Family
		}
		return specs[i].Name < specs[j].Name
	})
	return specs
}

// Save forces a snapshot compaction at the current epoch — recovery from
// this moment replays zero log records — and returns that epoch. The
// store also compacts automatically as the log grows (PersistConfig
// CompactEvery/CompactBytes); Save is for explicit checkpoints (clean
// shutdown, end of bulk load). On a System without a store it is a no-op.
func (s *System) Save() (uint64, error) {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	sn := s.snapshot()
	if s.st == nil {
		return sn.epoch(), nil
	}
	return sn.epoch(), s.compact(sn)
}

// compact writes sn as the store's newest snapshot (applyMu held). Success
// clears the memory of a failed automatic compaction; a failure is returned
// joined with it, so the caller learns the store has been failing since
// before this attempt.
func (s *System) compact(sn *snapshot) error {
	if err := s.st.Compact(s.snapshotData(sn)); err != nil {
		return errors.Join(err, s.compactErr)
	}
	s.compactErr = nil
	return nil
}

// AsOf materialises the historical graph version at epoch from the store
// and returns a Session pinned to it — time-travel reads: Exec on the
// session enumerates against the graph exactly as it stood then, with
// statistics (and therefore plans) of that epoch. The session's snapshot
// is private to its callers and never becomes the System's current
// version; Refresh re-pins it to the live present. Like Open, the
// materialised snapshot carries no delta views. Requires a persistent
// System (Create/Open) and an epoch still covered by the store's history
// (everything since Create unless DropHistory pruned it).
func (s *System) AsOf(epoch uint64) (*Session, error) {
	if s.st == nil {
		return nil, fmt.Errorf("huge: AsOf(%d): %w: System has no store (use Create or Open)", epoch, ErrInvalidOption)
	}
	rec, err := s.st.MaterializeAt(epoch)
	if err != nil {
		return nil, err
	}
	return &Session{sys: s, snap: newSnapshot(rec.Graph, rec.Stats)}, nil
}

// Close releases the persistent store's log handle. A clean shutdown first
// checkpoints — a snapshot at the final epoch, carrying the plan specs
// worth re-warming, so the next Open replays zero log records and starts
// with a warm plan cache — unless automatic compaction was disabled
// (negative CompactEvery), which pins the log for recovery-path
// measurement. A failed checkpoint is reported
// (joined with the store's own close error) but does not stop the release:
// the log already holds every epoch, so recovery stays exact, just slower.
// Apply panics after Close; queries, and Sessions obtained via AsOf, keep
// working on their in-memory snapshots. No-op without a store, and
// idempotent.
func (s *System) Close() error {
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	if s.st == nil || s.closed {
		return nil
	}
	s.closed = true
	var ckErr error
	if s.opts.Persist == nil || s.opts.Persist.CompactEvery >= 0 {
		if err := s.compact(s.snapshot()); err != nil {
			ckErr = fmt.Errorf("huge: clean-shutdown checkpoint: %w", err)
		}
	}
	return errors.Join(ckErr, s.st.Close())
}

// StatsFingerprint returns the FNV fingerprint of the current snapshot's
// graph statistics — the recovery oracle: a System recovered with Open
// reports the same value, bit for bit, as the system that wrote the store
// (the fingerprint keys the plan cache, so equality also means recovered
// plans hit the warm cache).
func (s *System) StatsFingerprint() uint64 { return s.snapshot().statsFP }

// LastDurableEpoch returns the newest epoch the store has made durable
// (equal to Epoch() between Apply calls), or 0 for a store-less System.
func (s *System) LastDurableEpoch() uint64 {
	if s.st == nil {
		return 0
	}
	return s.st.LastEpoch()
}
