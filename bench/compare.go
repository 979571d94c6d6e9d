package main

// -compare A.json B.json: apply the end-to-end bounds to two result files
// (single-workload files or the all.json a "-workload all" run writes).

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readResults(path string) (map[string]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var many []*result
	if err := json.Unmarshal(b, &many); err != nil {
		var one result
		if err := json.Unmarshal(b, &one); err != nil {
			return nil, fmt.Errorf("%s: neither a result nor a list of results: %w", path, err)
		}
		many = []*result{&one}
	}
	out := map[string]*result{}
	for _, r := range many {
		out[r.Workload] = r
	}
	return out, nil
}

// compareFiles prints one row per (workload, end-to-end metric) with both
// values, the ratio B/A and its verdict, and returns the exit code: 1 if
// any metric regressed past its bound or failed_frac rose.
//
// A metric is worse by (B-A)/A when lower is better and (A-B)/A when higher
// is better. Worse by more than its bound is "regressed" — unless either
// run's own pass-to-pass spread exceeds the bound, in which case one run
// per side cannot resolve the difference and the row reads "unresolved".
func compareFiles(pathA, pathB string) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	return compareResults(a, b, pathA, pathB)
}

func compareResults(a, b map[string]*result, pathA, pathB string) int {
	fmt.Printf("A = %s\nB = %s\n", pathA, pathB)
	fmt.Printf("%-8s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "B/A", "bound", "verdict")
	code := 0
	for _, w := range workloadNames() {
		ra, rb := a[w], b[w]
		if ra == nil || rb == nil {
			continue
		}
		if ra.Trace != rb.Trace {
			fmt.Printf("%-8s one file is a traced run, the other is not: not compared\n", w)
			code = 1
			continue
		}
		for _, def := range endToEnd {
			ma, okA := ra.Metrics[def.Name]
			mb, okB := rb.Metrics[def.Name]
			if !okA || !okB || ma.Value == 0 {
				continue
			}
			worse := (mb.Value - ma.Value) / ma.Value
			if def.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			if worse > def.Bound {
				verdict = "regressed"
				if max(ma.Spread, mb.Spread) > def.Bound {
					verdict = "unresolved"
				} else {
					code = 1
				}
			}
			fmt.Printf("%-8s %-18s %14.4f %14.4f %8.3fx %6.0f%%  %s\n", w, def.Name, ma.Value, mb.Value, mb.Value/ma.Value, 100*def.Bound, verdict)
		}
		fa := float64(ra.Failed) / float64(max(ra.Attempted, 1))
		fb := float64(rb.Failed) / float64(max(rb.Attempted, 1))
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			code = 1
		}
		fmt.Printf("%-8s %-18s %14.6f %14.6f %9s %7s  %s\n", w, "failed_frac", fa, fb, "", "0", verdict)
	}
	return code
}
