//go:build !race

// The race detector drops a random share of sync.Pool puts, so this guard
// runs only without it.

package huge_test

import (
	"context"
	"runtime"
	"testing"

	"repro/huge"
	"repro/internal/gen"
)

// TestClusterRunAllocs guards what a warm Machines 2 run allocates: the
// machines' cache tables and fetch buffers come from pools that the
// previous run's Close refilled, so a counted triangle on a 4,000-vertex
// power-law graph after the first grows no table, no miss list and no RPC
// buffer. It allocates about
// 33 KB; per-run cache growth puts it over the ceiling several times. The
// least of three runs is checked, since a collection that empties the
// pools between two runs costs one of them its tables.
func TestClusterRunAllocs(t *testing.T) {
	const ceiling = 64 << 10
	sys := huge.NewSystem(gen.PowerLaw(4000, 4, 43), huge.Options{Machines: 2, Workers: 1})
	run := func() uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := sys.Exec(context.Background(), huge.Triangle(), huge.CountOnly()).Wait()
		runtime.ReadMemStats(&after)
		if err != nil || res.Count == 0 {
			t.Fatalf("triangle count: %d %v", res.Count, err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // plans the triangle and grows the tables
	if b := min(run(), run(), run()); b > ceiling {
		t.Errorf("a warm Machines 2 triangle count allocated %d KB, want at most %d KB", b>>10, ceiling>>10)
	} else {
		t.Logf("a warm Machines 2 triangle count allocated %d KB", b>>10)
	}
}
