package huge_test

// End-to-end persistence tests: Create / Open / AsOf through the public
// API, with the counting engine as the oracle. The byte-level format and
// crash-injection coverage lives in internal/store; here the asserts are
// the ones the tentpole claims — recovered counts identical, statistics
// fingerprints byte-equal, the plan cache warm after Open, and time travel
// agreeing with the counts the live system maintained at each epoch.

import (
	"context"
	"os"
	"testing"

	"repro/huge"
	"repro/internal/gen"
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
	for _, mmap := range []bool{false, true} {
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

		re, err := huge.Open(dir, persistOpts(&huge.PersistConfig{Mmap: mmap}))
		if err != nil {
			t.Fatal(err)
		}
		if re.Epoch() != liveEpoch {
			t.Fatalf("mmap=%v: recovered epoch %d, want %d", mmap, re.Epoch(), liveEpoch)
		}
		if re.StatsFingerprint() != liveFP {
			t.Fatalf("mmap=%v: recovered stats fingerprint %016x != live %016x",
				mmap, re.StatsFingerprint(), liveFP)
		}
		if got := countTri(t, re.NewSession()); got != liveCount {
			t.Fatalf("mmap=%v: recovered count %d, want %d", mmap, got, liveCount)
		}
		// The plan cache was re-warmed from the persisted specs: the query
		// above must have been served without a planning miss.
		if hits, _, size := re.PlanCacheStats(); size == 0 || hits == 0 {
			t.Fatalf("mmap=%v: plan cache cold after Open (hits=%d size=%d)", mmap, hits, size)
		}

		// Time travel: every logged epoch reproduces the count the live
		// system maintained there.
		for e, want := range countAt {
			hs, err := re.AsOf(e)
			if err != nil {
				t.Fatalf("mmap=%v: AsOf(%d): %v", mmap, e, err)
			}
			if hs.Epoch() != e {
				t.Fatalf("mmap=%v: AsOf(%d) pinned epoch %d", mmap, e, hs.Epoch())
			}
			if got := countTri(t, hs); got != want {
				t.Fatalf("mmap=%v: AsOf(%d) count %d, want %d", mmap, e, got, want)
			}
		}
		if _, err := re.AsOf(liveEpoch + 1); err == nil {
			t.Fatalf("mmap=%v: AsOf past the newest epoch succeeded", mmap)
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
			t.Fatalf("mmap=%v: second recovery lost the post-recovery epoch", mmap)
		}
		re2.Close()
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
