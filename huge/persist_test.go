package huge_test

// End-to-end persistence tests: Create / Open / AsOf through the public
// API, with the counting engine as the oracle. The byte-level format and
// crash-injection coverage lives in internal/store; here the asserts are
// the ones the tentpole claims — recovered counts identical, statistics
// fingerprints byte-equal, the plan cache warm after Open, and time travel
// agreeing with the counts the live system maintained at each epoch.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/huge"
	"repro/internal/baseline"
	"repro/internal/gen"
	"repro/internal/plan"
	"repro/internal/store"
)

func persistOpts(p *huge.PersistConfig) huge.Options {
	return huge.Options{Machines: 2, Workers: 2, Persist: p}
}

func countTri(t *testing.T, sess *huge.Session) uint64 {
	t.Helper()
	q := huge.NewQuery("tri", [][2]int{{0, 1}, {0, 2}, {1, 2}})
	res, err := sess.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	return res.Count
}

// TestPersistRecoveryOracle drives the full lifecycle: Create, serve a
// query (warming the plan cache), Apply a labelled update stream, restart
// via Open, and compare everything observable against the live run.
func TestPersistRecoveryOracle(t *testing.T) {
	dir := t.TempDir()
	g := gen.ZipfLabels(gen.PowerLaw(600, 6, 11), 4, 1.5, 12)
	sys, err := huge.Create(dir, g, persistOpts(&huge.PersistConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	sess := sys.NewSession()
	countTri(t, sess) // warm the plan cache so Open has a spec to re-warm

	countAt := map[uint64]uint64{}
	for i := 0; i < 4; i++ {
		var d huge.Delta
		for _, u := range gen.UpdateStream(sys.Graph(), 40, int64(100+i)) {
			if u.Del {
				d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
			} else {
				d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
			}
		}
		e := sys.Apply(d)
		sess.Refresh()
		countAt[e] = countTri(t, sess)
	}
	liveEpoch, liveFP := sys.Epoch(), sys.StatsFingerprint()
	liveCount := countAt[liveEpoch]
	if err := sys.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := huge.Open(dir, persistOpts(&huge.PersistConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	if re.Epoch() != liveEpoch {
		t.Fatalf("recovered epoch %d, want %d", re.Epoch(), liveEpoch)
	}
	if re.StatsFingerprint() != liveFP {
		t.Fatalf("recovered stats fingerprint %016x != live %016x",
			re.StatsFingerprint(), liveFP)
	}
	if got := countTri(t, re.NewSession()); got != liveCount {
		t.Fatalf("recovered count %d, want %d", got, liveCount)
	}
	// The plan cache was re-warmed from the persisted specs: the query
	// above must have been served without a planning miss.
	if hits, _, size := re.PlanCacheStats(); size == 0 || hits == 0 {
		t.Fatalf("plan cache cold after Open (hits=%d size=%d)", hits, size)
	}

	// Time travel: every logged epoch reproduces the count the live
	// system maintained there.
	for e, want := range countAt {
		hs, err := re.AsOf(e)
		if err != nil {
			t.Fatalf("AsOf(%d): %v", e, err)
		}
		if hs.Epoch() != e {
			t.Fatalf("AsOf(%d) pinned epoch %d", e, hs.Epoch())
		}
		if got := countTri(t, hs); got != want {
			t.Fatalf("AsOf(%d) count %d, want %d", e, got, want)
		}
	}
	if _, err := re.AsOf(liveEpoch + 1); err == nil {
		t.Fatal("AsOf past the newest epoch succeeded")
	}
	// Durability continues after recovery: one more Apply, one more
	// restart, same oracle.
	e := re.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 1}, {1, 2}, {0, 2}}})
	s2 := re.NewSession()
	after := countTri(t, s2)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := huge.Open(dir, persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if re2.Epoch() != e || countTri(t, re2.NewSession()) != after {
		t.Fatal("second recovery lost the post-recovery epoch")
	}
	re2.Close()
}

// TestAsOfCorruptSnapshotIsAnError: bytes damaged on disk are an error,
// not a panic in an engine goroutine. After Create, Apply, Save, Apply,
// 4 KB of the epoch-0 snapshot's adjacency are overwritten with an
// out-of-range vertex id: AsOf(0) fails with store.ErrCorrupt, and the
// epochs the later snapshot covers still serve.
func TestAsOfCorruptSnapshotIsAnError(t *testing.T) {
	dir := t.TempDir()
	g := gen.PowerLaw(2000, 5, 7)
	sys, err := huge.Create(dir, g, persistOpts(&huge.PersistConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 1}, {1, 2}, {0, 2}}})
	if _, err := sys.Save(); err != nil {
		t.Fatal(err)
	}
	e := sys.Apply(huge.Delta{Delete: [][2]huge.VertexID{{0, 1}}})
	want := countTri(t, sys.NewSession())

	// The adjacency section starts at the first page boundary past the
	// 4 KiB header page and the V+1 eight-byte offsets.
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", 0))
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	adj := (4096 + (g.NumVertices()+1)*8 + 4095) &^ 4095
	for i := adj; i < adj+4096; i += 4 {
		binary.LittleEndian.PutUint32(b[i:], 0xFFFFFFF0)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := sys.AsOf(0); !errors.Is(err, store.ErrCorrupt) {
		t.Fatalf("AsOf(0) over a damaged snapshot: err = %v, want store.ErrCorrupt", err)
	}
	if got := countTri(t, mustAsOf(t, sys, e)); got != want {
		t.Fatalf("AsOf(%d) count %d, want %d", e, got, want)
	}
}

// TestOpenSkipsUnbuiltPlanFamilies: a snapshot may carry specs of plan
// families the System does not build — stores written while PlanFor still
// built the paper's baselines hold "seed" specs. Open succeeds, re-warms
// only the families it runs, and counts correctly.
func TestOpenSkipsUnbuiltPlanFamilies(t *testing.T) {
	dir := t.TempDir()
	g := gen.PowerLaw(300, 4, 23)
	q := huge.Q1()
	var specs []store.PlanSpec
	for _, family := range []string{"seed", "optimal", "wco"} {
		specs = append(specs, store.PlanSpec{Family: family, Name: q.Name(), NumV: q.NumVertices(), Edges: q.Edges()})
	}
	st, err := store.Create(dir, store.SnapshotData{CSR: g.Export(), Stats: plan.ComputeStats(g), Plans: specs}, store.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	sys, err := huge.Open(dir, persistOpts(&huge.PersistConfig{NoSync: true}))
	if err != nil {
		t.Fatalf("Open with a seed spec: %v", err)
	}
	defer sys.Close()
	if _, _, size := sys.PlanCacheStats(); size != 2 {
		t.Errorf("re-warmed %d plans, want 2 (optimal, wco)", size)
	}
	res, err := sys.Exec(context.Background(), q, huge.CountOnly()).Wait()
	if err != nil {
		t.Fatal(err)
	}
	if want := baseline.GroundTruthCount(g, q); res.Count != want || !res.PlanCached {
		t.Errorf("count %d (cached plan %v), want %d from the re-warmed plan", res.Count, res.PlanCached, want)
	}
}

// TestPersistSaveCheckpoint: after Save, a fresh Open replays zero log
// records (the recovered epoch comes straight off the new snapshot) and
// still matches the oracle.
func TestPersistSaveCheckpoint(t *testing.T) {
	dir := t.TempDir()
	g := gen.PowerLaw(400, 5, 21)
	sys, err := huge.Create(dir, g, persistOpts(&huge.PersistConfig{}))
	if err != nil {
		t.Fatal(err)
	}
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{1, 3}, {2, 9}}})
	want := countTri(t, sys.NewSession())
	ep, err := sys.Save()
	if err != nil {
		t.Fatal(err)
	}
	if ep != sys.Epoch() || sys.LastDurableEpoch() != ep {
		t.Fatalf("Save returned epoch %d; system at %d, durable %d", ep, sys.Epoch(), sys.LastDurableEpoch())
	}
	sys.Close()
	re, err := huge.Open(dir, persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != ep || countTri(t, re.NewSession()) != want {
		t.Fatalf("post-Save recovery: epoch %d count mismatch", re.Epoch())
	}
}

// TestPersistAutoCompaction: with a tiny CompactEvery, Apply churn rolls
// snapshots on its own and recovery still matches the oracle.
func TestPersistAutoCompaction(t *testing.T) {
	dir := t.TempDir()
	g := gen.PowerLaw(400, 5, 31)
	sys, err := huge.Create(dir, g, persistOpts(&huge.PersistConfig{CompactEvery: 2}))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 7; i++ {
		var d huge.Delta
		for _, u := range gen.UpdateStream(sys.Graph(), 20, int64(300+i)) {
			if u.Del {
				d.Delete = append(d.Delete, [2]huge.VertexID{u.U, u.V})
			} else {
				d.Insert = append(d.Insert, [2]huge.VertexID{u.U, u.V})
			}
		}
		sys.Apply(d)
	}
	want := countTri(t, sys.NewSession())
	first := countTri(t, mustAsOf(t, sys, 0)) // pre-churn epoch still reachable
	sys.Close()

	re, err := huge.Open(dir, persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := countTri(t, re.NewSession()); got != want {
		t.Fatalf("recovered count %d, want %d", got, want)
	}
	if got := countTri(t, mustAsOf(t, re, 0)); got != first {
		t.Fatalf("AsOf(0) after compactions: count %d, want %d", got, first)
	}
}

func mustAsOf(t *testing.T, sys *huge.System, epoch uint64) *huge.Session {
	t.Helper()
	hs, err := sys.AsOf(epoch)
	if err != nil {
		t.Fatal(err)
	}
	return hs
}

func TestPersistGuards(t *testing.T) {
	// AsOf without a store is a typed option error.
	sys := huge.NewSystem(gen.PowerLaw(100, 4, 41), huge.Options{Machines: 2, Workers: 2})
	if _, err := sys.AsOf(0); err == nil {
		t.Fatal("AsOf on a store-less System succeeded")
	}
	if sys.LastDurableEpoch() != 0 {
		t.Fatal("store-less LastDurableEpoch != 0")
	}
	if err := sys.Close(); err != nil {
		t.Fatal(err) // Close without a store is a no-op
	}

	dir := t.TempDir()
	g := gen.PowerLaw(100, 4, 42)
	ps, err := huge.Create(dir, g, persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if !huge.StoreExists(dir) {
		t.Fatal("StoreExists false for a created store")
	}
	if _, err := huge.Create(dir, g, persistOpts(nil)); err == nil {
		t.Fatal("Create over an existing store succeeded")
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err)
	}
	if err := ps.Close(); err != nil {
		t.Fatal(err) // idempotent
	}
	if huge.StoreExists(t.TempDir()) {
		t.Fatal("StoreExists true for an empty dir")
	}
}

// TestCloseReportsCheckpointFailure: a clean shutdown whose checkpoint
// cannot be written (the store directory is gone) must say so — the error
// used to be discarded — and a second Close stays a no-op.
func TestCloseReportsCheckpointFailure(t *testing.T) {
	dir := t.TempDir()
	sys, err := huge.Create(dir, gen.PowerLaw(100, 4, 43), persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, 99}}})
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := sys.Close(); err == nil {
		t.Fatal("Close returned nil after its checkpoint failed")
	}
	if err := sys.Close(); err != nil {
		t.Fatalf("second Close: %v, want nil (idempotent)", err)
	}
}

// warnings is a slog.Handler that keeps every record at Warn or above.
type warnings struct {
	mu   sync.Mutex
	recs []slog.Record
}

func (w *warnings) Enabled(_ context.Context, l slog.Level) bool { return l >= slog.LevelWarn }
func (w *warnings) WithAttrs([]slog.Attr) slog.Handler           { return w }
func (w *warnings) WithGroup(string) slog.Handler                { return w }
func (w *warnings) Handle(_ context.Context, r slog.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.recs = append(w.recs, r)
	return nil
}

func (w *warnings) count() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.recs)
}

// obstruct puts a non-empty directory where the store would write the
// snapshot of epoch: the log append of that epoch still succeeds, but no
// compaction at it can rename its file into place.
func obstruct(t *testing.T, dir string, epoch uint64) {
	t.Helper()
	path := filepath.Join(dir, fmt.Sprintf("snap-%016x.snap", epoch))
	if err := os.RemoveAll(path); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(path, "in-the-way"), 0o755); err != nil {
		t.Fatal(err)
	}
}

// joinedErrors is how many errors err joins (1 for a plain error).
func joinedErrors(err error) int {
	if j, ok := err.(interface{ Unwrap() []error }); ok {
		return len(j.Unwrap())
	}
	return 1
}

// TestAutoCompactionFailureIsReported: a failed automatic compaction used
// to vanish (`_ = s.st.Compact(...)`). The Apply must still return its
// epoch, the failure is logged once, Save joins it to its own failure until
// a compaction succeeds, and recovery still reaches the last applied epoch
// through the log.
func TestAutoCompactionFailureIsReported(t *testing.T) {
	var logged warnings
	prev := slog.Default()
	slog.SetDefault(slog.New(&logged))
	defer slog.SetDefault(prev)

	dir := t.TempDir()
	sys, err := huge.Create(dir, gen.PowerLaw(100, 4, 44), persistOpts(&huge.PersistConfig{CompactEvery: 2}))
	if err != nil {
		t.Fatal(err)
	}
	apply := func(want uint64) {
		t.Helper()
		if got := sys.Apply(huge.Delta{Insert: [][2]huge.VertexID{{0, huge.VertexID(90 + want)}}}); got != want {
			t.Fatalf("Apply returned epoch %d, want %d", got, want)
		}
	}
	obstruct(t, dir, 2)
	apply(1) // below CompactEvery: no compaction yet
	if n := logged.count(); n != 0 {
		t.Fatalf("%d warnings before any compaction", n)
	}
	apply(2) // appended, then compaction at epoch 2 fails
	if n := logged.count(); n != 1 {
		t.Fatalf("%d warnings after one failed compaction, want 1", n)
	}
	var epoch any
	logged.recs[0].Attrs(func(a slog.Attr) bool {
		if a.Key == "epoch" {
			epoch = a.Value.Any()
		}
		return true
	})
	if epoch != uint64(2) {
		t.Errorf("warning carries epoch %v, want 2", epoch)
	}
	// Save hits the same obstacle and reports both failures.
	if _, err := sys.Save(); err == nil || joinedErrors(err) != 2 {
		t.Fatalf("Save after a failed automatic compaction: %v; want its own failure joined with the remembered one", err)
	}

	apply(3) // compaction at epoch 3 succeeds and clears the memory
	if n := logged.count(); n != 1 {
		t.Fatalf("%d warnings after a successful compaction, want still 1", n)
	}
	obstruct(t, dir, 3)
	if _, err := sys.Save(); err == nil || joinedErrors(err) != 1 {
		t.Fatalf("Save after a successful automatic compaction: %v; want only its own failure", err)
	}

	want := countTri(t, sys.NewSession())
	if err := sys.Close(); err == nil {
		t.Error("Close returned nil although its checkpoint is obstructed")
	}
	re, err := huge.Open(dir, persistOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Epoch() != 3 {
		t.Fatalf("recovered epoch %d, want 3 (the last applied)", re.Epoch())
	}
	if got := countTri(t, re.NewSession()); got != want {
		t.Fatalf("recovered count %d, want %d", got, want)
	}
}
