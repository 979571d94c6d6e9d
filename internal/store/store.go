package store

import (
	"errors"
	"fmt"
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
	// Mmap maps snapshot CSR sections instead of reading them, so opening
	// is O(header) and cold segments page lazily. Falls back to full reads
	// on unsupported platforms/filesystems and big-endian hosts.
	Mmap bool
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
	mapped       [][]byte
	closed       bool
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

// Open attaches to an existing store directory for appending. Recovery
// starts from the newest snapshot whose file is intact (a corrupted newer
// one — e.g. from a crash mid-compaction — is skipped; the log still
// covers the distance), chains every later log segment, and truncates the
// live segment's torn tail (if a crash left one) to the last durable
// record so subsequent appends extend a clean log.
func Open(dir string, opts Options) (*Store, error) {
	snaps, err := listEpochs(dir, "snap-", ".snap")
	if err != nil {
		return nil, err
	}
	if len(snaps) == 0 {
		return nil, fmt.Errorf("store: no snapshot in %s", dir)
	}
	var base uint64
	found := false
	for i := len(snaps) - 1; i >= 0; i-- {
		if _, err := readSnapshotFile(snapPath(dir, snaps[i]), false); err == nil {
			base = snaps[i]
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("store: every snapshot in %s is unreadable", dir)
	}
	wals, err := listEpochs(dir, "wal-", ".wal")
	if err != nil {
		return nil, err
	}
	// Chain segments forward from the base: a segment named for epoch e
	// holds records e+1, e+2, ... — so each one must start where the chain
	// currently ends. Appends go to the newest segment.
	last, live := base, base
	for _, we := range wals {
		if we < base {
			continue
		}
		if we != last {
			return nil, fmt.Errorf("store: log segment at epoch %d does not continue the chain (ends at %d)", we, last)
		}
		wp := walPath(dir, we)
		durable, lastEpoch, err := replayWAL(wp, func(uint64, graph.Delta) error { return nil })
		if err != nil {
			return nil, err
		}
		if lastEpoch != 0 {
			last = lastEpoch
		}
		live = we
		if fi, err := os.Stat(wp); err == nil && fi.Size() > durable {
			if err := os.Truncate(wp, durable); err != nil {
				return nil, err
			}
		}
	}
	w, err := openWAL(walPath(dir, live), opts.NoSync)
	if err != nil {
		return nil, err
	}
	return &Store{
		dir: dir, opts: opts, wal: w,
		base: base, lastEpoch: last, appliesSince: int(last - base),
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

// Close releases the log handle and any snapshot mappings handed out by
// Recover/MaterializeAt. Graphs returned by those calls must not be used
// after Close when the store was opened with Mmap.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.wal.close()
	for _, m := range s.mapped {
		if e := munmapFile(m); err == nil {
			err = e
		}
	}
	s.mapped = nil
	return err
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

// Recover reconstructs the newest durable state: newest intact snapshot,
// then every durable log record past it replayed through graph.Apply and
// plan.UpdateStats — the exact maintenance path the live system ran.
func (s *Store) Recover() (Recovered, error) {
	s.mu.Lock()
	base, last := s.base, s.lastEpoch
	s.mu.Unlock()
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
// base < record epoch ≤ upto, walking segments in start order (a segment
// at epoch e holds records e+1..next segment's epoch).
func (s *Store) materialize(base, upto uint64) (Recovered, error) {
	loaded, err := readSnapshotFile(snapPath(s.dir, base), s.opts.Mmap)
	if err != nil {
		return Recovered{}, err
	}
	if loaded.mapped != nil {
		s.mu.Lock()
		s.mapped = append(s.mapped, loaded.mapped)
		s.mu.Unlock()
	}
	if loaded.data.CSR.Epoch != base {
		return Recovered{}, fmt.Errorf("store: snapshot file for epoch %d holds epoch %d", base, loaded.data.CSR.Epoch)
	}
	g := graph.FromCSR(loaded.data.CSR)
	stats := loaded.data.Stats
	rec := Recovered{Graph: g, Stats: stats, Plans: loaded.data.Plans, Epoch: base}
	if upto == base {
		return rec, nil
	}

	wals, err := listEpochs(s.dir, "wal-", ".wal")
	if err != nil {
		return Recovered{}, err
	}
	next := base + 1
	for _, we := range wals {
		if we < base || we >= upto {
			continue
		}
		_, _, err := replayWAL(walPath(s.dir, we), func(epoch uint64, d graph.Delta) error {
			if epoch < next || epoch > upto {
				return nil // before our snapshot, or past the target epoch
			}
			if epoch != next {
				return fmt.Errorf("store: log gap: expected epoch %d, segment holds %d", next, epoch)
			}
			ng, applied := graph.Apply(g, d)
			stats = plan.UpdateStats(stats, g, ng, applied)
			g = ng
			next = epoch + 1
			return nil
		})
		if err != nil {
			return Recovered{}, err
		}
	}
	if next != upto+1 {
		return Recovered{}, fmt.Errorf("store: log ends at epoch %d, wanted %d", next-1, upto)
	}
	rec.Graph, rec.Stats, rec.Epoch = g, stats, upto
	return rec, nil
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
