package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"runtime"
	"slices"
	"testing"
)

// tinyRun runs one workload at smoke-test scale in this process.
func tinyRun(t *testing.T, workload string, trace bool) (*result, string) {
	t.Helper()
	dir := t.TempDir()
	r := newResult(workload, trace, runRecord{Seed: 1, Tiny: true})
	run(r, workload, tinySizes(), 1, 0, trace, dir)
	r.finish()
	for _, f := range r.Failures {
		t.Errorf("%s (trace=%v): %s", workload, trace, f)
	}
	if !r.Correct || r.Failed != 0 {
		t.Errorf("%s (trace=%v): %d of %d operations failed", workload, trace, r.Failed, r.Attempted)
	}
	return r, dir
}

func needTwoCPUs(t *testing.T) {
	t.Helper()
	if runtime.NumCPU() < benchProcs {
		t.Skipf("the benchmark needs %d CPUs, have %d", benchProcs, runtime.NumCPU())
	}
	prev := runtime.GOMAXPROCS(benchProcs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestCatalog checks the vocabulary against the benchmark contract's limits
// and against the committed BENCHMARK.json.
func TestCatalog(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		use(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		use(m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.On != nil {
			t.Errorf("%s: an end-to-end metric must be measured on every workload", m.Name)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range endToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error(`no end-to-end metric "setup_s" with unit s, better lower`)
	}
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if !unit.MatchString(m.Unit) {
				t.Errorf("%s: unit %q does not match %v", m.Name, m.Unit, unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better = %q", m.Name, m.Better)
			}
			for _, w := range m.On {
				if !slices.Contains(workloadNames(), w) {
					t.Errorf("%s: measured on unknown workload %q", m.Name, w)
				}
			}
		}
	}
	for _, m := range perLayer {
		use(m.Name)
	}

	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the catalog: regenerate it with `go run -C bench . -manifest > BENCHMARK.json`")
	}
	if len(committed) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(committed))
	}
}

// TestSmoke runs all five workloads end to end and traced at -tiny scale:
// every oracle must hold, every metric the catalog lists for the workload
// must be emitted (exactly once — set fails on a duplicate), and the
// numbers that must read zero must.
func TestSmoke(t *testing.T) {
	needTwoCPUs(t)
	for _, w := range workloadNames() {
		e2e, _ := tinyRun(t, w, false)
		for _, def := range endToEnd {
			if m, ok := e2e.Metrics[def.Name]; !ok || m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v (present %v), must be measured and positive", w, def.Name, m.Value, ok)
			}
		}
		traced, dir := tinyRun(t, w, true)
		for _, def := range perLayer {
			if _, ok := traced.Metrics[def.Name]; ok != def.on(w) {
				t.Errorf("%s: per-layer metric %s emitted = %v, catalog says measured here = %v", w, def.Name, ok, def.on(w))
			}
		}
		if _, err := os.Stat(tracePath(dir, w)); err != nil {
			t.Errorf("%s: traced run wrote no span file: %v", w, err)
		}
		comm := traced.Metrics["cluster.rpc_calls"].Value + traced.Metrics["cluster.pulled_mb"].Value + traced.Metrics["cluster.pushed_mb"].Value
		if w == "cluster" && comm == 0 {
			t.Errorf("cluster: no communication at Machines:2")
		}
		if w != "cluster" && comm != 0 {
			t.Errorf("%s: cluster.* must read 0 at Machines:1, sum is %v", w, comm)
		}
		if w == "topk" {
			if v := traced.Metrics["huge.gov_waited"].Value + traced.Metrics["huge.gov_shed"].Value; v != 0 {
				t.Errorf("topk: %v requests waited or were shed with one client", v)
			}
		}
		if w == "churn" {
			if v := traced.Metrics["huge.shed_events"].Value; v != 0 {
				t.Errorf("churn: %v subscription events shed", v)
			}
		}

		// The driver's line: exactly four keys, exactly the listed metrics.
		for _, r := range []*result{e2e, traced} {
			var line struct {
				Correct   *bool                      `json:"correct"`
				Attempted *int                       `json:"attempted"`
				Failed    *int                       `json:"failed"`
				Metrics   map[string]json.RawMessage `json:"metrics"`
			}
			dec := json.NewDecoder(bytes.NewReader([]byte(r.contractLine())))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s: contract line: %v", w, err)
			}
			if line.Correct == nil || line.Attempted == nil || line.Failed == nil || *line.Attempted < 1 {
				t.Errorf("%s: contract line lacks correct/attempted/failed", w)
			}
			if len(line.Metrics) != len(r.expected()) {
				t.Errorf("%s: contract line carries %d metrics, want %d", w, len(line.Metrics), len(r.expected()))
			}
			for _, def := range r.expected() {
				if _, ok := line.Metrics[def.Name]; !ok {
					t.Errorf("%s: contract line lacks %s", w, def.Name)
				}
			}
		}
	}
}

// TestCompare: equal files pass, a timing worse than its bound regresses,
// one inside a noisy run's own spread is unresolved, a new failure regresses.
func TestCompare(t *testing.T) {
	mk := func(passS, spread float64, failed int) map[string]*result {
		r := newResult("count", false, runRecord{})
		r.Attempted, r.Failed = 100, failed
		r.setSpread("pass_s", passS, 3, spread)
		return map[string]*result{"count": r}
	}
	for _, tc := range []struct {
		name string
		a, b map[string]*result
		want int
	}{
		{"equal", mk(4, 0.02, 0), mk(4, 0.02, 0), 0},
		{"within bound", mk(4, 0.02, 0), mk(4.2, 0.02, 0), 0},
		{"regressed", mk(4, 0.02, 0), mk(6, 0.02, 0), 1},
		{"unresolved", mk(4, 0.5, 0), mk(6, 0.02, 0), 0},
		{"improved", mk(4, 0.02, 0), mk(2, 0.02, 0), 0},
		{"new failure", mk(4, 0.02, 0), mk(4, 0.02, 1), 1},
	} {
		if got := compareResults(tc.a, tc.b, "A", "B"); got != tc.want {
			t.Errorf("%s: exit code %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
	if got := quantile(slices.Clone(xs), 0.95); got != 5 {
		t.Errorf("p95 of 5 values = %v, want the largest", got)
	}
	if got := quantile(slices.Clone(xs), 0.5); got != 3 {
		t.Errorf("p50 = %v", got)
	}
}
