package exp

import (
	"fmt"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/query"
)

// Table1 reproduces Table 1: the square query (q1) on the LJ stand-in,
// comparing the pushing systems (SEED, BiGJoin), the pulling systems
// (BENU, RADS) and hybrid HUGE on total time, communication time, data
// volume and peak memory.
func (e *Env) Table1() Table {
	g := e.Dataset("LJ")
	q := query.Q1()
	t := Table{Title: "Table 1: square query (q1) on LJ stand-in", Header: resultHeader}
	memLimit := int64(g.NumVertices()) * 2000
	for _, name := range []string{"SEED", "BiGJoin", "BENU", "RADS"} {
		t.Rows = append(t.Rows, e.RunBaseline(name, g, q, memLimit).cells())
	}
	t.Rows = append(t.Rows, e.RunHUGE(g, q, HugeOpts{}).cells())
	return t
}

// Fig5 reproduces Exp-1 (Figure 5): each competitor's logical plan plugged
// into HUGE (Remark 3.2) against the original system, on q1 and q2.
func (e *Env) Fig5() Table {
	g := e.Dataset("LJ")
	t := Table{
		Title:  "Figure 5 (Exp-1): speeding up existing algorithms on LJ stand-in",
		Header: []string{"query", "pair", "original", "in-HUGE", "speedup"},
	}
	pairs := []struct{ base, hugePlan string }{
		{"BENU", "benu"}, {"RADS", "rads"}, {"SEED", "seed"}, {"BiGJoin", "wco"},
	}
	for _, q := range []*query.Query{query.Q1(), query.Q2()} {
		for _, p := range pairs {
			orig := e.RunBaseline(p.base, g, q, 0)
			inHuge := e.RunHUGE(g, q, HugeOpts{PlanName: p.hugePlan})
			speedup := "-"
			if orig.Err == nil && inHuge.Err == nil && inHuge.Elapsed > 0 {
				speedup = fmt.Sprintf("%.1fx", orig.Elapsed.Seconds()/inHuge.Elapsed.Seconds())
			}
			origCell, hugeCell := fmtDur(orig.Elapsed), fmtDur(inHuge.Elapsed)
			if orig.Err != nil {
				origCell = "OOM/ERR"
				speedup = "INF"
			}
			if inHuge.Err != nil {
				hugeCell = "ERR"
			}
			t.Rows = append(t.Rows, []string{
				q.Name(), fmt.Sprintf("%s vs HUGE-%s", p.base, p.hugePlan), origCell, hugeCell, speedup,
			})
		}
	}
	return t
}

// Fig6 reproduces Exp-2 (Figure 6): all-round comparison of HUGE against
// the four baselines on q1–q6 across five datasets.
func (e *Env) Fig6(queries []string, datasets []string) Table {
	if len(queries) == 0 {
		queries = []string{"q1", "q2", "q3", "q4", "q5", "q6"}
	}
	if len(datasets) == 0 {
		datasets = []string{"EU", "LJ", "OR", "UK", "FS"}
	}
	t := Table{
		Title:  "Figure 6 (Exp-2): all-round comparison (execution time; commTime in parens)",
		Header: append([]string{"query", "dataset"}, "BENU", "RADS", "SEED", "BiGJoin", "HUGE"),
	}
	memLimit := int64(4_000_000)
	for _, qn := range queries {
		q := query.ByName(qn)
		for _, ds := range datasets {
			g := e.Dataset(ds)
			row := []string{qn, ds}
			for _, base := range []string{"BENU", "RADS", "SEED", "BiGJoin"} {
				r := e.RunBaseline(base, g, q, memLimit)
				if r.Err != nil {
					row = append(row, "OOM")
				} else {
					row = append(row, fmt.Sprintf("%s(%s)", fmtDur(r.Elapsed), fmtDur(r.Summary.CommTime)))
				}
			}
			h := e.RunHUGE(g, q, HugeOpts{})
			if h.Err != nil {
				row = append(row, "ERR")
			} else {
				row = append(row, fmt.Sprintf("%s(%s)", fmtDur(h.Elapsed), fmtDur(h.Summary.CommTime)))
			}
			t.Rows = append(t.Rows, row)
		}
	}
	return t
}

// Table4 reproduces Exp-3 (Table 4): throughput of q1–q3 on the web-scale
// CW stand-in.
func (e *Env) Table4() Table {
	g := e.Dataset("CW")
	t := Table{
		Title:  "Table 4 (Exp-3): throughput on CW stand-in",
		Header: []string{"query", "results", "time", "throughput(results/s)"},
	}
	for _, qn := range []string{"q1", "q2", "q3"} {
		r := e.RunHUGE(g, query.ByName(qn), HugeOpts{})
		if r.Err != nil {
			t.Rows = append(t.Rows, []string{qn, "ERR", "-", "-"})
			continue
		}
		t.Rows = append(t.Rows, []string{
			qn, fmt.Sprintf("%d", r.Count), fmtDur(r.Elapsed),
			fmt.Sprintf("%.0f", float64(r.Count)/r.Elapsed.Seconds()),
		})
	}
	return t
}

// Fig7 reproduces Exp-4 (Figure 7): varying the batch size with the cache
// effectively disabled; larger batches aggregate more RPCs, improving
// execution time, communication time and network utilisation.
func (e *Env) Fig7() Table {
	g := e.Dataset("UK")
	t := Table{
		Title:  "Figure 7 (Exp-4): vary batch size (cache disabled)",
		Header: []string{"query", "batchRows", "T", "T_C(blocked)", "RPCs", "pulled"},
	}
	for _, qn := range []string{"q1", "q3"} {
		q := query.ByName(qn)
		for _, batch := range []int{256, 1024, 4096, 16384} {
			r := e.RunHUGE(g, q, HugeOpts{BatchRows: batch, CacheBytes: 1})
			t.Rows = append(t.Rows, []string{
				qn, fmt.Sprintf("%d", batch), fmtDur(r.Elapsed), fmtDur(r.Summary.CommTime),
				fmt.Sprintf("%d", r.Summary.RPCCalls), fmtMB(r.Summary.BytesPulled),
			})
		}
	}
	return t
}

// Fig8 reproduces Exp-5 (Figure 8): varying the cache capacity; larger
// caches raise the hit rate and cut communication.
func (e *Env) Fig8() Table {
	g := e.Dataset("UK")
	t := Table{
		Title:  "Figure 8 (Exp-5): vary cache capacity",
		Header: []string{"query", "cache(frac of |E_G|)", "T_C(blocked)", "pulled", "hitRate"},
	}
	for _, qn := range []string{"q1", "q3"} {
		q := query.ByName(qn)
		for _, frac := range []float64{0.01, 0.05, 0.10, 0.30, 1.0} {
			capBytes := uint64(frac * float64(g.SizeBytes()))
			if capBytes == 0 {
				capBytes = 1
			}
			r := e.RunHUGE(g, q, HugeOpts{CacheBytes: capBytes})
			hit := float64(r.Summary.CacheHits) / float64(max64(1, r.Summary.CacheHits+r.Summary.CacheMisses))
			t.Rows = append(t.Rows, []string{
				qn, fmt.Sprintf("%.0f%%", frac*100), fmtDur(r.Summary.CommTime),
				fmtMB(r.Summary.BytesPulled), fmt.Sprintf("%.1f%%", hit*100),
			})
		}
	}
	return t
}

// Table5 reproduces Exp-6 (Table 5): the cache-design ablation. LRBU
// (lock-free, zero-copy, two-stage) against the copy, lock, unbounded-LRU
// and no-two-stage concurrent-LRU variants; the fetch-stage time of LRBU
// (its synchronisation cost) is shown in parentheses, as in the paper.
func (e *Env) Table5() Table {
	g := e.Dataset("UK")
	t := Table{
		Title:  "Table 5 (Exp-6): cache design ablation",
		Header: []string{"query", "LRBU(fetch)", "LRBU-Copy", "LRBU-Lock", "LRU-Inf", "Cncr-LRU"},
	}
	kinds := []cache.Kind{cache.LRBU, cache.LRBUCopy, cache.LRBULock, cache.LRUInf, cache.CncrLRU}
	for _, qn := range []string{"q1", "q2", "q3"} {
		q := query.ByName(qn)
		row := []string{qn}
		for _, kind := range kinds {
			r := e.RunHUGE(g, q, HugeOpts{CacheKind: kind, CacheBytes: g.SizeBytes() / 10})
			cell := fmtDur(r.Elapsed)
			if kind == cache.LRBU {
				cell = fmt.Sprintf("%s (%s)", fmtDur(r.Elapsed), fmtDur(r.Summary.FetchTime))
			}
			if r.Err != nil {
				cell = "ERR"
			}
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// Fig9 reproduces Exp-7 (Figure 9): sweeping the output-queue size from
// DFS (1) through the adaptive regime to BFS (unbounded), reporting time
// and peak memory.
func (e *Env) Fig9() Table {
	g := e.Dataset("UK")
	q := query.Q6()
	t := Table{
		Title:  "Figure 9 (Exp-7): BFS/DFS-adaptive scheduling (queue size sweep) on q6",
		Header: []string{"queueRows", "mode", "T", "peakTuples"},
	}
	type pt struct {
		rows int64
		mode string
	}
	for _, p := range []pt{{1, "DFS"}, {1 << 10, "adaptive"}, {1 << 14, "adaptive"}, {1 << 18, "adaptive"}, {-1, "BFS"}} {
		r := e.RunHUGE(g, q, HugeOpts{QueueRows: p.rows, BatchRows: 512})
		label := fmt.Sprintf("%d", p.rows)
		if p.rows < 0 {
			label = "inf"
		}
		t.Rows = append(t.Rows, []string{label, p.mode, fmtDur(r.Elapsed), fmt.Sprintf("%d", r.Summary.PeakTuples)})
	}
	return t
}

// Fig10 reproduces Exp-8 (Figure 10): work stealing (HUGE) vs no stealing
// (HUGE-NOSTL) vs region-group placement (HUGE-RGP).
func (e *Env) Fig10() Table {
	g := e.Dataset("UK")
	t := Table{
		Title:  "Figure 10 (Exp-8): load balancing",
		Header: []string{"query", "strategy", "T", "intraSteals", "interSteals"},
	}
	strategies := []struct {
		name string
		lb   engine.LoadBalance
	}{
		{"HUGE", engine.LBSteal}, {"HUGE-NOSTL", engine.LBStatic}, {"HUGE-RGP", engine.LBPivot},
	}
	for _, qn := range []string{"q1", "q2", "q3"} {
		q := query.ByName(qn)
		for _, s := range strategies {
			r := e.RunHUGE(g, q, HugeOpts{LoadBalance: s.lb, BatchRows: 512})
			t.Rows = append(t.Rows, []string{
				qn, s.name, fmtDur(r.Elapsed),
				fmt.Sprintf("%d", r.Summary.StealsIntra), fmt.Sprintf("%d", r.Summary.StealsInter),
			})
		}
	}
	return t
}

// Table6 reproduces Exp-9 (Table 6): hybrid plan spaces — HUGE's optimiser
// against the wco-only plan and the computation-only hybrid planners
// (EmptyHeaded, GraphFlow) on q7 and q8 over the GO stand-in. Every family
// runs compressed: HUGE's optimiser prices a counted tail at its prefix,
// so running its plan uncompressed would time a plan it did not choose.
// The results column holds the count the families agree on, or
// "DISAGREE" when they do not.
func (e *Env) Table6() Table {
	g := e.Dataset("GO")
	t := Table{
		Title:  "Table 6 (Exp-9): hybrid execution plans on GO stand-in",
		Header: []string{"query", "HUGE-WCO", "HUGE-EH", "HUGE-GF", "HUGE", "results"},
	}
	for _, qn := range []string{"q7", "q8"} {
		q := query.ByName(qn)
		row := []string{qn}
		results := ""
		for _, pn := range []string{"wco", "emptyheaded", "graphflow", "optimal"} {
			r := e.RunHUGE(g, q, HugeOpts{PlanName: pn, Compress: true})
			if r.Err != nil {
				row = append(row, "ERR")
				continue
			}
			row = append(row, fmtDur(r.Elapsed))
			if n := fmt.Sprintf("%d", r.Count); results == "" {
				results = n
			} else if n != results {
				results = "DISAGREE"
			}
		}
		t.Rows = append(t.Rows, append(row, results))
	}
	return t
}

// Fig11 reproduces Exp-10 (Figure 11): scalability with machine count on
// the FS stand-in, HUGE vs BiGJoin.
func (e *Env) Fig11() Table {
	g := e.Dataset("FS")
	t := Table{
		Title:  "Figure 11 (Exp-10): scalability (machines 1..8) on FS stand-in",
		Header: []string{"query", "system", "k=1", "k=2", "k=4", "k=8", "speedup(1->8)"},
	}
	ks := []int{1, 2, 4, 8}
	for _, qn := range []string{"q2", "q3"} {
		q := query.ByName(qn)
		hugeTimes := make([]time.Duration, len(ks))
		for i, k := range ks {
			hugeTimes[i] = e.RunHUGE(g, q, HugeOpts{Machines: k}).Elapsed
		}
		row := []string{qn, "HUGE"}
		for _, d := range hugeTimes {
			row = append(row, fmtDur(d))
		}
		row = append(row, fmt.Sprintf("%.1fx", hugeTimes[0].Seconds()/hugeTimes[len(ks)-1].Seconds()))
		t.Rows = append(t.Rows, row)

		bigTimes := make([]time.Duration, len(ks))
		ok := true
		for i, k := range ks {
			save := e.K
			e.K = k
			r := e.RunBaseline("BiGJoin", g, q, 0)
			e.K = save
			if r.Err != nil {
				ok = false
				break
			}
			bigTimes[i] = r.Elapsed
		}
		row = []string{qn, "BiGJoin"}
		if ok {
			for _, d := range bigTimes {
				row = append(row, fmtDur(d))
			}
			row = append(row, fmt.Sprintf("%.1fx", bigTimes[0].Seconds()/bigTimes[len(ks)-1].Seconds()))
		} else {
			row = append(row, "OOM", "-", "-", "-", "-")
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

// All runs every experiment in paper order, calling emit as each table
// completes (so long suites stream results). Fig6 is restricted to the
// given queries/datasets (nil = the paper's full grid).
func (e *Env) All(fig6Queries, fig6Datasets []string, emit func(Table)) []Table {
	mks := []func() Table{
		e.Table1,
		e.Fig5,
		func() Table { return e.Fig6(fig6Queries, fig6Datasets) },
		e.Table4,
		e.Fig7,
		e.Fig8,
		e.Table5,
		e.Fig9,
		e.Fig10,
		e.Table6,
		e.Fig11,
	}
	out := make([]Table, 0, len(mks))
	for _, mk := range mks {
		t := mk()
		if emit != nil {
			emit(t)
		}
		out = append(out, t)
	}
	return out
}

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
