package main

// The benchmark's vocabulary: the workloads, the end-to-end metrics with
// their regression bounds, and the per-layer metrics with the end-to-end
// metric each is predicted to move. BENCHMARK.json at the repo root is this
// catalog rendered by -manifest; bench_test.go fails when the two drift.

import (
	"encoding/json"
	"slices"
)

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"count", "Heavy CountOnly and grouped analytics at Machines:1: plan choice, intersection kernels and engine extend do all the work; serving layer, cache and store do none."},
	{"topk", "Interactive Limit(k) serving on a governed System: per-request fixed cost (admission, plan cache, translate, engine start-up, stream delivery) is the whole latency."},
	{"churn", "In-memory Apply stream under 8 standing queries: graph merge, stats, repartition and subscription maintenance, and what an update costs the next read."},
	{"durable", "The same Apply stream through a persistent store: WAL append, fsync and compaction on the write side; snapshot load and log replay on restart."},
	{"cluster", "The paper's regime at Machines:2: remote adjacency pulls through the LRBU cache, push shuffles, join buffers and inter-machine stealing, all zero in count."},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metricDef describes one metric. On lists the workloads whose run measures
// it (nil = every workload); elsewhere the contract line reports 0, meaning
// "not measured on this workload". Moves is the prediction written down
// before measuring: the end-to-end metric @ workload a change to this layer
// number should show up in.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: worsening that counts as a regression
	On     []string
	Moves  string
	Doc    string
}

var (
	analytic = []string{"count", "cluster"}
	applies  = []string{"churn", "durable"}
)

// endToEnd is the bounded set every workload reports. A later PR is judged
// by these: one metric, one workload. The six time-valued ones are reported
// in reference-machine time (calib.go), each with its raw measurement.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "median of 3 set-ups: dataset generation + System construction (NewSystem/Create, Subscribe) + priming (plans, hub index, 200 requests or Applies), until timing could start"},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25,
		Doc: "principal operations (queries; requests; Applies) per second at the median pass/round: operations in a pass / pass_s"},
	{Name: "pass_s", Unit: "s", Better: "lower", Bound: 0.25,
		Doc: "count, cluster: time of one pass, each class at its median over the window's passes; topk, churn, durable: median over rounds (1000 requests / 512 Applies) of the round's timed operations incl. interleaved reads"},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median principal-operation latency, per round, median round: a request with k<=10 (topk), an Apply (churn, durable); on count, cluster the median class"},
	{Name: "op_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "95th percentile of the same samples, nearest rank, per round, median round; on count, cluster the slowest class"},
	{Name: "aux_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25,
		Doc: "median latency of the workload's secondary operation, the one a cheaper principal path could tax: grouped queries (count), page_p50_ms (topk), query_after_apply_ms (churn), open_ms (durable), the q7 push-join (cluster)"},
	{Name: "alloc_kb_per_op", Unit: "KB", Better: "lower", Bound: 0.10,
		Doc: "runtime.MemStats.TotalAlloc delta over the window / principal operations"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25,
		Doc: "VmHWM of the workload's process at the end of the run"},
	{Name: "peak_mtuples", Unit: "Mtuples", Better: "lower", Bound: 0.20,
		Doc: "Result.Metrics.PeakTuples in 10^6 tuples, the paper's memory axis M: max over the window's queries; on topk the mean over a round's requests, median round"},
}

// perLayer is everything else the runs report, unbounded. The first block
// is the workload-specific end-to-end numbers (they cannot be bounded
// metrics because a bounded metric must be non-zero on every workload);
// the rest is the layer breakdown, prefix = module.
var perLayer = []metricDef{
	{Name: "page_p50_ms", Unit: "ms", Better: "lower", On: []string{"topk"},
		Doc: "median latency of the page class: triangle Limit(1000), first call to last match drained through Stream.Matches"},
	{Name: "query_after_apply_ms", Unit: "ms", Better: "lower", On: []string{"churn"},
		Doc: "median full triangle CountOnly issued right after an Apply (every 256th)"},
	{Name: "open_ms", Unit: "ms", Better: "lower", On: []string{"durable"},
		Doc: "median huge.Open of a crash image: snapshot load + 200-record replay + plan re-warm"},
	{Name: "comm_mb_per_pass", Unit: "MB", Better: "lower", On: []string{"cluster"},
		Doc: "sum of BytesPulled+BytesPushed over a pass: the paper's communication axis C"},
	{Name: "disk_kb_per_update", Unit: "KB", Better: "lower", On: []string{"durable"},
		Doc: "bytes in the store directory at the end / edge updates applied (default fsync policy, full history)"},
	{Name: "failed_frac", Unit: "ratio", Better: "lower",
		Doc: "operations that errored, panicked or failed an oracle check / attempted"},

	{Name: "query.parse_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p95_ms@topk; none on count",
		Doc: "huge.ParsePattern of an adhoc text (replay span, median)"},
	{Name: "query.fingerprint_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p95_ms@topk; none on count",
		Doc: "(*Query).Fingerprint() on a fresh adhoc Query: canonical code + automorphisms (replay span, median)"},

	{Name: "plan.optimize_us", Unit: "us", Better: "lower", On: []string{"topk", "durable"}, Moves: "op_p95_ms@topk, open_ms@durable",
		Doc: "plan.Optimize, cold, mean over q1-q8 against the workload's statistics"},
	{Name: "plan.cache_hit_ratio", Unit: "ratio", Better: "higher", Moves: "op_p95_ms@topk, query_after_apply_ms@churn",
		Doc: "System.PlanCacheStats hits / (hits+misses) over the untraced window"},
	{Name: "plan.translate_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p50_ms@topk; none on count",
		Doc: "plan.Translate, paid on every Exec (replay span, median)"},
	{Name: "plan.regret_gmean", Unit: "ratio", Better: "lower", On: analytic, Moves: "pass_s@count, pass_s@cluster",
		Doc: "per plain class: engine time under the plan System.Plan picks / the faster of {optimal, wco}; geometric mean"},
	{Name: "plan.regret_max", Unit: "ratio", Better: "lower", On: analytic, Moves: "pass_s@count, pass_s@cluster",
		Doc: "the same ratio, max over classes"},
	{Name: "plan.compute_stats_ms", Unit: "ms", Better: "lower", Moves: "setup_s",
		Doc: "plan.ComputeStats on the workload's largest graph"},
	{Name: "plan.update_stats_us", Unit: "us", Better: "lower", On: applies, Moves: "op_p50_ms@churn, op_p50_ms@durable, open_ms@durable",
		Doc: "plan.UpdateStats per 4-edge delta (replay span, median)"},

	{Name: "cluster.new_us", Unit: "us", Better: "lower", On: applies, Moves: "op_p50_ms@churn, op_p50_ms@durable, open_ms@durable",
		Doc: "cluster.New on a post-Apply graph, i.e. graph.Split, O(V) (replay span, median)"},
	{Name: "cluster.new_exec_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p50_ms@topk",
		Doc: "(*Cluster).NewExec: per-run metrics and cold per-machine caches (replay span, median)"},
	{Name: "cluster.rpc_calls", Unit: "count", Better: "lower", Moves: "comm_mb_per_pass@cluster; must read 0 on count and topk",
		Doc: "Result.Metrics.RPCCalls, mean per pass/round"},
	{Name: "cluster.pulled_mb", Unit: "MB", Better: "lower", Moves: "comm_mb_per_pass@cluster; must read 0 on count and topk",
		Doc: "Result.Metrics.BytesPulled, mean per pass/round"},
	{Name: "cluster.pushed_mb", Unit: "MB", Better: "lower", Moves: "comm_mb_per_pass@cluster; must read 0 on count and topk",
		Doc: "Result.Metrics.BytesPushed, mean per pass/round"},

	{Name: "cache.hit_ratio", Unit: "ratio", Better: "higher", Moves: "comm_mb_per_pass@cluster, pass_s@cluster",
		Doc: "CacheHits / (CacheHits+CacheMisses) over the untraced window"},
	{Name: "cache.get_ns", Unit: "ns", Better: "lower", On: []string{"cluster"}, Moves: "pass_s@cluster; none elsewhere",
		Doc: "cache.New(LRBU, 30% of LJ) Get, replaying a seeded vertex stream with Seal/Release per 4096-vertex batch"},
	{Name: "cache.insert_ns", Unit: "ns", Better: "lower", On: []string{"cluster"}, Moves: "pass_s@cluster; none elsewhere",
		Doc: "the same replay's Insert on a miss (incl. eviction)"},

	{Name: "graph.intersect_ns_per_elem", Unit: "ns", Better: "lower", On: analytic, Moves: "pass_s@count, pass_s@cluster; none on topk",
		Doc: "graph.IntersectCount over 10^5 seeded adjacency pairs of LJ, ns / (|a|+|b|)"},
	{Name: "graph.intersect_hub_ns_per_elem", Unit: "ns", Better: "lower", On: []string{"count"}, Moves: "pass_s@count (OR classes only)",
		Doc: "graph.IntersectCountAdaptive on OR pairs with at least one hub operand"},
	{Name: "graph.kernel_merge_share", Unit: "ratio", Better: "lower", Moves: "pass_s@count",
		Doc: "merge dispatches / all dispatches in Result.Metrics.Kernels over the untraced window"},
	{Name: "graph.hub_index_ms", Unit: "ms", Better: "lower", On: []string{"count"}, Moves: "none expected (sub-ms at seed)",
		Doc: "EnsureHubIndex on a fresh post-Apply OR snapshot"},
	{Name: "graph.apply_us", Unit: "us", Better: "lower", On: applies, Moves: "op_p50_ms@churn, op_p50_ms@durable, open_ms@durable",
		Doc: "graph.Apply(g, d) per 4-edge delta (replay span, median)"},
	{Name: "graph.neighbors_base_ns", Unit: "ns", Better: "lower", On: []string{"churn"}, Moves: "query_after_apply_ms@churn",
		Doc: "Neighbors(v) over 10^6 seeded vertices on a Compact()ed snapshot"},
	{Name: "graph.neighbors_overlay_ns", Unit: "ns", Better: "lower", On: []string{"churn"}, Moves: "query_after_apply_ms@churn",
		Doc: "the same on the overlay snapshot the Applies left behind"},
	{Name: "graph.overlay_rows", Unit: "count", Better: "lower", On: applies, Moves: "query_after_apply_ms@churn",
		Doc: "OverlayRows() of the live graph when the untraced window ends, exact"},

	{Name: "engine.run_share", Unit: "ratio", Better: "lower", Moves: "how much of each workload is the engine's to win",
		Doc: "sum of engine.Run time (Result.Elapsed) / sum of System.Exec wall, same requests"},
	{Name: "engine.fixed_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p50_ms@topk; none on count",
		Doc: "engine.Run of the triangle dataflow as a Limit run on a 3-vertex path: stage set-up, pools, seeding, goroutines and nothing else"},
	{Name: "engine.matches_per_s", Unit: "1/s", Better: "higher", On: analytic, Moves: "pass_s@count",
		Doc: "sum of counts / sum of engine.Run time"},
	{Name: "engine.fetch_share", Unit: "ratio", Better: "lower", On: analytic, Moves: "pass_s@cluster; on count it is the Machines:1 fetch-stage tax",
		Doc: "Metrics.FetchTime / (engine.Run time x workers)"},
	{Name: "engine.comm_ms", Unit: "ms", Better: "lower", Moves: "pass_s@cluster",
		Doc: "Metrics.CommTime, mean per pass/round"},
	{Name: "engine.steals", Unit: "count", Better: "higher", Moves: "pass_s@cluster",
		Doc: "StealsIntra+StealsInter, mean per pass/round"},
	{Name: "engine.speedup_w2", Unit: "ratio", Better: "higher", On: []string{"count"}, Moves: "pass_s@count",
		Doc: "throughput of the plain LJ classes at Workers:2 / Workers:1"},
	{Name: "engine.join_buffer_ns_per_row", Unit: "ns", Better: "lower", On: []string{"cluster"}, Moves: "pass_s@cluster (q7 only)",
		Doc: "engine.NewRelation Add+Finalize+drain of 10^6 seeded rows"},

	{Name: "store.append_us", Unit: "us", Better: "lower", On: []string{"durable"}, Moves: "op_p50_ms@durable; none on churn",
		Doc: "Store.Append with default options: encode + write + fsync (replay span, median)"},
	{Name: "store.append_nosync_us", Unit: "us", Better: "lower", On: []string{"durable"}, Moves: "op_p50_ms@durable",
		Doc: "Store.Append under NoSync: encode + write only"},
	{Name: "store.compact_ms", Unit: "ms", Better: "lower", On: []string{"durable"}, Moves: "ops_per_s@durable",
		Doc: "Store.Compact of the replay's graph (median over its compactions)"},
	{Name: "store.compact_stall_ms", Unit: "ms", Better: "lower", On: []string{"durable"}, Moves: "ops_per_s@durable (1 in 256 Applies, beyond p95 by construction)",
		Doc: "median wall of the Applies that crossed a compaction boundary in the untraced window"},
	{Name: "store.recover_ms", Unit: "ms", Better: "lower", On: []string{"durable"}, Moves: "open_ms@durable",
		Doc: "store.Open + Recover on the crash image"},
	{Name: "store.replay_records", Unit: "count", Better: "lower", On: []string{"durable"}, Moves: "open_ms@durable",
		Doc: "log records that recovery replayed, exact"},
	{Name: "store.snapshot_mb", Unit: "MB", Better: "lower", On: []string{"durable"}, Moves: "disk_kb_per_update@durable",
		Doc: "size of the newest snapshot file"},
	{Name: "store.wal_bytes_per_update", Unit: "B", Better: "lower", On: []string{"durable"}, Moves: "disk_kb_per_update@durable",
		Doc: "log bytes on disk / edge updates applied"},
	{Name: "store.materialize_at_ms", Unit: "ms", Better: "lower", On: []string{"durable"}, Moves: "huge.asof_ms",
		Doc: "Store.MaterializeAt(epoch-100) on the crash image"},

	{Name: "huge.exec_self_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p50_ms@topk",
		Doc: "p50 System.Exec wall - p50 of the replay's summed spans, classes with k<=10 (raw, may be ~0)"},
	{Name: "huge.govern_us", Unit: "us", Better: "lower", On: []string{"topk"}, Moves: "op_p50_ms@topk",
		Doc: "per round, p50 on the governed System - p50 on an ungoverned one given the same requests, alternating; median round"},
	{Name: "huge.deliver_ns_per_match", Unit: "ns", Better: "lower", On: []string{"topk"}, Moves: "page_p50_ms@topk",
		Doc: "(page via Stream.Matches - page via OnMatch(noop)) / 1000, alternating; median pair"},
	{Name: "huge.apply_self_us", Unit: "us", Better: "lower", On: applies, Moves: "op_p50_ms@churn",
		Doc: "p50 Apply with no subscribers - (graph.apply_us + store.append_us + plan.update_stats_us + cluster.new_us)"},
	{Name: "huge.maintain_us", Unit: "us", Better: "lower", On: []string{"churn"}, Moves: "op_p50_ms@churn",
		Doc: "p50 Apply with the 8 subscribers - p50 without"},
	{Name: "huge.shared_runs", Unit: "count", Better: "lower", On: []string{"churn"}, Moves: "op_p50_ms@churn",
		Doc: "MaintenanceStats.SharedRuns over the untraced window, exact"},
	{Name: "huge.fanned_events", Unit: "count", Better: "lower", On: []string{"churn"}, Moves: "op_p50_ms@churn",
		Doc: "MaintenanceStats.FannedEvents over the untraced window, exact"},
	{Name: "huge.shed_events", Unit: "count", Better: "lower", On: []string{"churn"}, Moves: "must read 0: the driver drains after every Apply",
		Doc: "MaintenanceStats.ShedEvents over the untraced window, exact"},
	{Name: "huge.gov_admitted", Unit: "count", Better: "higher", On: []string{"topk"}, Moves: "equals the requests issued",
		Doc: "GovernorStats.Admitted over the untraced window"},
	{Name: "huge.gov_waited", Unit: "count", Better: "lower", On: []string{"topk"}, Moves: "must read 0 with one client",
		Doc: "GovernorStats.Waited over the untraced window"},
	{Name: "huge.gov_shed", Unit: "count", Better: "lower", On: []string{"topk"}, Moves: "must read 0 with one client",
		Doc: "GovernorStats.ShedQueue+ShedMemory over the untraced window"},
	{Name: "huge.asof_ms", Unit: "ms", Better: "lower", On: []string{"durable"}, Moves: "none bounded",
		Doc: "median System.AsOf(epoch-100) on the live durable System"},
	{Name: "huge.new_system_ms", Unit: "ms", Better: "lower", Moves: "setup_s",
		Doc: "huge.NewSystem on the workload's largest graph"},

	{Name: "bench.trace_overhead", Unit: "ratio", Better: "higher", Moves: "none: health of the traced run itself",
		Doc: "traced (step-by-step replay with spans) ops_per_s / untraced System ops_per_s on the same operations"},
}

func (m metricDef) on(workload string) bool {
	return m.On == nil || slices.Contains(m.On, workload)
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// runSeconds is the nominal length of the measured window the driver passes
// as --seconds, and the default of that flag.
const runSeconds = 15

// manifest renders the catalog as BENCHMARK.json.
func manifest() []byte {
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2e         `json:"end_to_end"`
		PerLayer   []layer       `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "-C", "bench", "."},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return append(b, '\n')
}
