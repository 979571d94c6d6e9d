package store

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sync"

	"repro/internal/graph"
	"repro/internal/plan"
)

// Options tunes a store. The zero value is a sensible durable default.
type Options struct {
	// NoSync skips the per-append fsync. Throughput rises by orders of
	// magnitude; a crash (not a clean Close) may lose the most recent
	// epochs. Recovery is still correct — it lands on the last record the
	// OS got to disk.
	NoSync bool
	// CompactEvery triggers automatic compaction after that many appended
	// deltas (0 = DefaultCompactEvery, <0 = never automatically).
	CompactEvery int
	// CompactBytes triggers automatic compaction once the live log segment
	// exceeds this size (0 = DefaultCompactBytes, <0 = no byte trigger).
	CompactBytes int64
	// DropHistory prunes snapshots and log segments made obsolete by each
	// compaction. Bounds disk at ~one snapshot + one live segment, but
	// MaterializeAt then only reaches epochs at or after the latest
	// snapshot. The default keeps everything since Create, so any logged
	// epoch stays materialisable (time travel over the full history).
	DropHistory bool
}

// DefaultCompactEvery and DefaultCompactBytes are the automatic-compaction
// triggers used when Options leaves them zero: whichever of "many deltas"
// or "log outgrew a fat snapshot" hits first.
const (
	DefaultCompactEvery = 256
	DefaultCompactBytes = 64 << 20
)

func (o Options) compactEvery() int {
	if o.CompactEvery == 0 {
		return DefaultCompactEvery
	}
	return o.CompactEvery
}

func (o Options) compactBytes() int64 {
	if o.CompactBytes == 0 {
		return DefaultCompactBytes
	}
	return o.CompactBytes
}

// Store is a durable snapshot + write-ahead-log pair rooted in one
// directory. Methods are safe for one writer with concurrent readers of
// recovered data; Append/Compact/Close serialise internally.
type Store struct {
	dir  string
	opts Options

	mu           sync.Mutex
	wal          *walWriter
	base         uint64 // epoch of the newest intact snapshot (recovery base)
	lastEpoch    uint64 // newest epoch durable in the store
	appliesSince int    // durable epochs past the recovery base
	// rec is the state Open recovered, held for the first Recover until an
	// Append makes it stale.
	rec    *Recovered
	closed bool
	// failed is the first append error. A failed append may leave a torn
	// frame in the segment, and replay stops at a tear, so nothing may be
	// appended after it: every later Append returns this error until the
	// store is reopened, whose torn-tail truncation restores a clean log.
	failed error
}

func snapPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", epoch))
}

func walPath(dir string, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%016x.wal", epoch))
}

// Create initialises dir (made on demand, must not already hold a store)
// with data as the base snapshot and an empty log following it.
func Create(dir string, data SnapshotData, opts Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if eps, _ := listEpochs(dir, "snap-", ".snap"); len(eps) > 0 {
		return nil, fmt.Errorf("store: %s already holds a store (snapshot at epoch %d)", dir, eps[len(eps)-1])
	}
	epoch := data.CSR.Epoch
	if err := writeSnapshotFile(snapPath(dir, epoch), data); err != nil {
		return nil, err
	}
	w, err := openWAL(walPath(dir, epoch), opts.NoSync)
	if err != nil {
		return nil, err
	}
	return &Store{dir: dir, opts: opts, wal: w, base: epoch, lastEpoch: epoch}, nil
}

// Open attaches to an existing store directory for appending, recovering
// its newest durable state on the way. It loads the newest snapshot that
// verifies (a corrupted newer one — e.g. from a crash mid-compaction — is
// skipped; the log still covers the distance), then replays every later
// log segment once: that pass rebuilds the state, checks the segment
// chain, and truncates the live segment's torn tail (if a crash left one)
// to the last durable record so subsequent appends extend a clean log.
// Only a snapshot that fails to load makes Open try an older one; a log
// that does not replay fails it.
func Open(dir string, opts Options) (*Store, error) {
	snaps, err := listEpochs(dir, "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("store: no snapshot in %s", dir)
	}
	var rec Recovered
	for i := len(snaps) - 1; i >= 0; i-- {
		if rec, err = loadSnapshot(dir, snaps[i]); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("store: every snapshot in %s is unreadable: %w", dir, err)
	}
	base := rec.Epoch
	live, durable, err := replayLog(dir, &rec, math.MaxUint64)
	if err != nil {
		return nil, err
	}
	wp := walPath(dir, live)
	if fi, err := os.Stat(wp); err == nil && fi.Size() > durable {
		if err := os.Truncate(wp, durable); err != nil {
			return nil, err
		}
	}
	w, err := openWAL(wp, opts.NoSync)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir: dir, opts: opts, wal: w,
		base: base, lastEpoch: rec.Epoch, appliesSince: int(rec.Epoch - base),
		rec: &rec,
	}, nil
}

// LastEpoch returns the newest epoch durable in the store.
func (s *Store) LastEpoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastEpoch
}

// Append logs the delta that produced epoch and makes it durable (unless
// NoSync). Epochs must arrive in order, each one past the last. Once an
// append fails, every later one fails too until the store is reopened.
func (s *Store) Append(epoch uint64, d graph.Delta) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: append on closed store")
	}
	if s.failed != nil {
		return fmt.Errorf("store: log unusable after a failed append, reopen the store: %w", s.failed)
	}
	if epoch != s.lastEpoch+1 {
		return fmt.Errorf("store: append epoch %d out of order (last durable %d)", epoch, s.lastEpoch)
	}
	if err := s.wal.append(epoch, d); err != nil {
		s.failed = err
		return err
	}
	s.lastEpoch = epoch
	s.appliesSince++
	s.rec = nil
	return nil
}

// ShouldCompact reports whether the automatic-compaction triggers say the
// log has outgrown its snapshot. The caller (who owns the live graph)
// then calls Compact with fresh SnapshotData.
func (s *Store) ShouldCompact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.appliesSince == 0 {
		return false
	}
	if ce := s.opts.compactEvery(); ce > 0 && s.appliesSince >= ce {
		return true
	}
	if cb := s.opts.compactBytes(); cb > 0 && s.wal != nil && s.wal.size >= cb {
		return true
	}
	return false
}

// Compact persists data as a new snapshot and starts a fresh log segment
// after it, so recovery replays nothing. data must be the state at the
// store's last appended epoch. With DropHistory set, files made obsolete
// (older snapshots and fully-covered segments) are pruned afterwards.
func (s *Store) Compact(data SnapshotData) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("store: compact on closed store")
	}
	epoch := data.CSR.Epoch
	if epoch != s.lastEpoch {
		return fmt.Errorf("store: compacting at epoch %d but last durable is %d", epoch, s.lastEpoch)
	}
	// Always (re)write the snapshot — even with zero log records to retire
	// the plan specs may have changed, and the temp-file + rename write
	// replaces any existing file at this epoch atomically.
	if err := writeSnapshotFile(snapPath(s.dir, epoch), data); err != nil {
		return err
	}
	if s.appliesSince > 0 {
		w, err := openWAL(walPath(s.dir, epoch), s.opts.NoSync)
		if err != nil {
			return err
		}
		old := s.wal
		s.wal, s.base, s.appliesSince = w, epoch, 0
		if err := old.close(); err != nil {
			return err
		}
	}
	if s.opts.DropHistory {
		s.pruneLocked(epoch)
	}
	return nil
}

// pruneLocked removes snapshots older than keep and the segments that fed
// them. Best-effort: a file that refuses to go only costs disk.
func (s *Store) pruneLocked(keep uint64) {
	snaps, _ := listEpochs(s.dir, "snap-", ".snap")
	for _, e := range snaps {
		if e < keep {
			os.Remove(snapPath(s.dir, e))
		}
	}
	wals, _ := listEpochs(s.dir, "wal-", ".wal")
	for _, e := range wals {
		if e < keep {
			os.Remove(walPath(s.dir, e))
		}
	}
}

// Close releases the log handle. Graphs returned by Recover and
// MaterializeAt own their memory and stay usable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed, s.rec = true, nil
	return s.wal.close()
}

// Recovered is the reconstructed state at a durable epoch.
type Recovered struct {
	Graph *graph.Graph
	// Stats is the statistics chain replayed to Graph's epoch — bit-equal
	// (same Fingerprint) to what the live system computed, because the
	// snapshot persisted exact float bits and UpdateStats is deterministic.
	Stats plan.GraphStats
	// Plans lists the (query, family) pairs cached when the snapshot was
	// taken, for re-warming the plan cache.
	Plans []PlanSpec
	Epoch uint64
}

// Recover returns the newest durable state: newest intact snapshot, then
// every durable log record past it replayed through graph.Apply and
// plan.UpdateStats — the exact maintenance path the live system ran. The
// first call after Open hands over the state Open recovered and reads no
// file; any later call, or one after an Append, materialises it from disk.
func (s *Store) Recover() (Recovered, error) {
	s.mu.Lock()
	rec, base, last := s.rec, s.base, s.lastEpoch
	s.rec = nil
	s.mu.Unlock()
	if rec != nil {
		return *rec, nil
	}
	return s.materialize(base, last)
}

// MaterializeAt reconstructs the durable state at any logged epoch ≤
// LastEpoch — the time-travel read path. With DropHistory, epochs before
// the latest snapshot are gone and return an error.
func (s *Store) MaterializeAt(epoch uint64) (Recovered, error) {
	s.mu.Lock()
	last := s.lastEpoch
	s.mu.Unlock()
	if epoch > last {
		return Recovered{}, fmt.Errorf("store: epoch %d not in store (newest is %d)", epoch, last)
	}
	snaps, err := listEpochs(s.dir, "snap-", ".snap")
	if err != nil {
		return Recovered{}, err
	}
	// Newest snapshot at or before the target epoch; on failure (e.g. a
	// snapshot corrupted by a mid-compaction crash) fall back to the next
	// older one — the log still covers the distance.
	var lastErr error
	for i := len(snaps) - 1; i >= 0; i-- {
		if snaps[i] > epoch {
			continue
		}
		rec, err := s.materialize(snaps[i], epoch)
		if err == nil {
			return rec, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return Recovered{}, lastErr
	}
	return Recovered{}, fmt.Errorf("store: no snapshot at or before epoch %d (history pruned?)", epoch)
}

// materialize loads the snapshot at base and replays logged deltas with
// base < record epoch ≤ upto.
func (s *Store) materialize(base, upto uint64) (Recovered, error) {
	rec, err := loadSnapshot(s.dir, base)
	if err != nil {
		return Recovered{}, err
	}
	if _, _, err := replayLog(s.dir, &rec, upto); err != nil {
		return Recovered{}, err
	}
	if rec.Epoch != upto {
		return Recovered{}, fmt.Errorf("store: log ends at epoch %d, wanted %d", rec.Epoch, upto)
	}
	return rec, nil
}

// replayLog applies to rec, in order, every durable log record past
// rec.Epoch up to epoch upto, through graph.Apply and plan.UpdateStats —
// the exact maintenance path the live system ran. Segments must continue
// the chain: one named for epoch e holds records e+1, e+2, ..., so it must
// start where the previous one ended. It returns the epoch naming the last
// segment read (rec.Epoch's own if none) and that segment's durable length.
func replayLog(dir string, rec *Recovered, upto uint64) (live uint64, durable int64, err error) {
	wals, err := listEpochs(dir, "wal-", ".wal")
	if err != nil {
		return 0, 0, err
	}
	base := rec.Epoch
	live = base
	for _, we := range wals {
		if we < base || we >= upto {
			continue // before our snapshot, or wholly past the target epoch
		}
		if we != rec.Epoch {
			return 0, 0, fmt.Errorf("store: log segment at epoch %d does not continue the chain (ends at %d)", we, rec.Epoch)
		}
		live = we
		durable, _, err = replayWAL(walPath(dir, we), func(epoch uint64, d graph.Delta) error {
			if epoch > upto {
				return nil
			}
			if epoch != rec.Epoch+1 {
				return fmt.Errorf("store: log gap: expected epoch %d, segment holds %d", rec.Epoch+1, epoch)
			}
			ng, applied := graph.Apply(rec.Graph, d)
			rec.Stats = plan.UpdateStats(rec.Stats, rec.Graph, ng, applied)
			rec.Graph, rec.Epoch = ng, epoch
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	return live, durable, nil
}

// listEpochs returns the epochs of files named <prefix><16-hex><suffix>
// in dir, ascending. Unparsable names are ignored.
func listEpochs(dir, prefix, suffix string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		name := e.Name()
		if len(name) != len(prefix)+16+len(suffix) ||
			name[:len(prefix)] != prefix || name[len(name)-len(suffix):] != suffix {
			continue
		}
		var ep uint64
		if _, err := fmt.Sscanf(name[len(prefix):len(prefix)+16], "%016x", &ep); err != nil {
			continue
		}
		out = append(out, ep)
	}
	slices.Sort(out)
	return out, nil
}

// Exists reports whether dir already holds a store (at least one snapshot
// file), so callers can choose between Create and Open.
func Exists(dir string) bool {
	eps, err := listEpochs(dir, "snap-", ".snap")
	return err == nil && len(eps) > 0
}
