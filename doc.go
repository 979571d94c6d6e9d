// Package repro is a from-scratch Go reproduction of "HUGE: An Efficient
// and Scalable Subgraph Enumeration System" (Yang, Lai, Lin, Hao, Zhang;
// SIGMOD 2021, arXiv:2103.14294).
//
// The public API lives in repro/huge: a concurrent query service whose one
// core entry point is System.Exec / Session.Exec —
//
//	st := sys.Exec(ctx, huge.Q1(), huge.Limit(10))
//	for m := range st.Matches() {   // pull-based match stream
//	    fmt.Println(m)
//	}
//	res, err := st.Wait()           // count, metrics, plan provenance
//
// with composable options (Limit for engine-side top-k early termination
// via a shared atomic match budget, CountOnly for the compressed counting
// path, WithPlan, Timeout, OnMatch) and a Stream that is both a pull
// iterator and the Result carrier. The service serves both unlabelled
// and label-constrained patterns — vertex AND edge labels
// thread through the whole stack (labelled graphs with a per-label vertex
// index and a (srcLabel, edgeLabel) triple index, label-aware
// automorphisms and canonical fingerprints, triple-statistics-driven
// selectivity in the optimiser, and one shared vertex-/edge-label
// candidate predicate in the engine's scan and extend paths). The data
// graph is versioned: System.Apply merges edge insert/delete/relabel and
// vertex-label deltas into immutable epoch-stamped snapshots (overlay
// adjacency for small deltas, CSR compaction past a threshold), Sessions
// pin the snapshot they opened on, plan-cache keys carry the epoch, and
// Query.Delta() enumerates only the match delta via difference-based
// rewriting — full(t) + delta == full(t+1), oracle-verified, including
// under edge-label churn. Underneath, the wco intersections run on
// degree-adaptive kernels: each snapshot lazily carries packed neighbour
// bitsets for its hub vertices, and graph.IntersectAdaptive dispatches
// per operand pair between merge, galloping, bitset-probe and
// word-parallel bitset-AND — with count-only variants so the compressed
// counting path never materialises a candidate set it only needs to
// count. The harness that regenerates every table and figure of the
// paper's evaluation lives in repro/internal/exp and is timed by the
// benchmarks in bench_test.go; the serving benchmark that is tracked from
// PR to PR (five workloads, declared in BENCHMARK.json) is the nested
// module in bench/.
// See README.md for the architecture overview, including the Exec/Stream
// query API, the session/plan-cache layering, the labelled and
// edge-labelled matching workloads and the streaming-updates model.
package repro
