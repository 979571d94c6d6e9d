package exp

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/baseline"
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/query"
)

func tinyEnv() *Env { return TinyEnv() }

func checkTable(t *testing.T, tb Table, wantCols int) {
	t.Helper()
	if tb.Title == "" || len(tb.Header) != wantCols {
		t.Fatalf("bad table header: %q %v", tb.Title, tb.Header)
	}
	if len(tb.Rows) == 0 {
		t.Fatalf("%s: no rows", tb.Title)
	}
	for _, r := range tb.Rows {
		if len(r) != wantCols {
			t.Fatalf("%s: row %v has %d cells, want %d", tb.Title, r, len(r), wantCols)
		}
	}
	s := tb.String()
	if !strings.Contains(s, tb.Title) {
		t.Fatalf("String() missing title")
	}
}

func TestTable1(t *testing.T) {
	tb := tinyEnv().Table1()
	checkTable(t, tb, 6)
	// All five systems present, and every successful row reports the same
	// result count.
	if len(tb.Rows) != 5 {
		t.Fatalf("Table1 rows = %d, want 5", len(tb.Rows))
	}
	counts := map[string]bool{}
	for _, r := range tb.Rows {
		if r[1] != "OOM" && !strings.HasPrefix(r[1], "ERR") {
			counts[r[5]] = true
		}
	}
	if len(counts) != 1 {
		t.Fatalf("systems disagree on result count: %v", tb.Rows)
	}
}

func TestFig5(t *testing.T)   { checkTable(t, tinyEnv().Fig5(), 5) }
func TestFig7(t *testing.T)   { checkTable(t, tinyEnv().Fig7(), 6) }
func TestFig8(t *testing.T)   { checkTable(t, tinyEnv().Fig8(), 5) }
func TestTable5(t *testing.T) { checkTable(t, tinyEnv().Table5(), 6) }
func TestFig9(t *testing.T)   { checkTable(t, tinyEnv().Fig9(), 4) }
func TestFig10(t *testing.T)  { checkTable(t, tinyEnv().Fig10(), 5) }
func TestTable6(t *testing.T) { checkTable(t, tinyEnv().Table6(), 5) }

func TestFig6Restricted(t *testing.T) {
	tb := tinyEnv().Fig6([]string{"q1"}, []string{"EU", "GO"})
	checkTable(t, tb, 7)
	if len(tb.Rows) != 2 {
		t.Fatalf("restricted Fig6 rows = %d, want 2", len(tb.Rows))
	}
}

func TestFig11(t *testing.T) {
	tb := tinyEnv().Fig11()
	checkTable(t, tb, 7)
	if len(tb.Rows) != 4 {
		t.Fatalf("Fig11 rows = %d, want 4 (2 queries x 2 systems)", len(tb.Rows))
	}
}

func TestDatasetCachedAndKnown(t *testing.T) {
	e := tinyEnv()
	g1 := e.Dataset("LJ")
	g2 := e.Dataset("LJ")
	if g1 != g2 {
		t.Fatal("dataset not cached")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown dataset should panic")
		}
	}()
	e.Dataset("nope")
}

func TestFig9MemoryShape(t *testing.T) {
	// The scheduling sweep must show DFS peak << BFS peak.
	tb := tinyEnv().Fig9()
	var dfsPeak, bfsPeak string
	for _, r := range tb.Rows {
		if r[1] == "DFS" {
			dfsPeak = r[3]
		}
		if r[1] == "BFS" {
			bfsPeak = r[3]
		}
	}
	if dfsPeak == "" || bfsPeak == "" {
		t.Fatalf("missing DFS/BFS rows: %v", tb.Rows)
	}
	var d, b int64
	if _, err := fmt.Sscan(dfsPeak, &d); err != nil {
		t.Fatal(err)
	}
	if _, err := fmt.Sscan(bfsPeak, &b); err != nil {
		t.Fatal(err)
	}
	if d >= b {
		t.Fatalf("DFS peak %d not below BFS peak %d", d, b)
	}
}

// TestFig9Enumerates guards the scheduler experiment: Figure 9 sweeps the
// queue size on q6 without compression, so every setting must enumerate
// every match — equal counts, the oracle's — and none may count at the
// rung separator a CountOnly run of q6 takes.
func TestFig9Enumerates(t *testing.T) {
	e := tinyEnv()
	g := e.Dataset("UK")
	q := query.Q6()
	want := baseline.GroundTruthCount(g, q)
	for _, rows := range []int64{1, 1 << 10, 1 << 14, 1 << 18, -1} {
		r := e.RunHUGE(g, q, HugeOpts{QueueRows: rows, BatchRows: 512})
		if r.Err != nil {
			t.Fatalf("queue %d: %v", rows, r.Err)
		}
		if r.Count != want {
			t.Errorf("queue %d: count %d, want %d", rows, r.Count, want)
		}
		if r.Summary.TailRows != 0 {
			t.Errorf("queue %d: %d rows counted in closed form, want 0", rows, r.Summary.TailRows)
		}
	}
}

// TestRunHUGEMatchesGroundTruth: the rig path (System.PlanFor or
// FamilyPlan, then cluster + engine driven directly with the ablation
// settings) must count exactly what the oracle counts, for every plan
// family under every cache variant and load-balancing strategy the
// experiments flip.
func TestRunHUGEMatchesGroundTruth(t *testing.T) {
	e := tinyEnv()
	g := e.Dataset("GO")
	q := query.Q1()
	want := baseline.GroundTruthCount(g, q)
	for _, family := range []string{"optimal", "wco", "seed", "rads", "benu", "emptyheaded", "graphflow"} {
		for _, kind := range []cache.Kind{cache.LRBU, cache.LRBUCopy, cache.LRBULock, cache.LRUInf, cache.CncrLRU} {
			for _, lb := range []engine.LoadBalance{engine.LBSteal, engine.LBStatic, engine.LBPivot} {
				r := e.RunHUGE(g, q, HugeOpts{PlanName: family, CacheKind: kind, CacheBytes: g.SizeBytes() / 10, LoadBalance: lb, BatchRows: 256})
				if r.Err != nil {
					t.Fatalf("%s/%v/%v: %v", family, kind, lb, r.Err)
				}
				if r.Count != want {
					t.Errorf("%s/%v/%v: count %d, oracle %d", family, kind, lb, r.Count, want)
				}
			}
		}
	}
}
