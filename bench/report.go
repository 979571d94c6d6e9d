package main

// Result bookkeeping shared by every workload: the metric table, the
// failure tally, the run record, percentile helpers, and the two output
// forms — the human table plus result file, and the one-line JSON object
// the benchmark driver reads as the last line of standard output.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Samples is how many measurements the value summarises (operations for
	// a percentile, passes/rounds for a per-pass median, 1 for a counter).
	Samples int `json:"samples,omitempty"`
	// Spread is the interquartile range of the per-pass/round values as a
	// share of their median, when at least three exist; -compare uses it to
	// tell "regressed" from "unresolved".
	Spread float64 `json:"spread,omitempty"`
	// Raw is the same statistic of the measurements as taken, for a metric
	// reported in reference-machine time (calib.go).
	Raw float64 `json:"raw,omitempty"`
}

type runRecord struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Tiny       bool   `json:"tiny,omitempty"`
	FsyncEvery string `json:"fsync_policy"`
	TempFS     string `json:"temp_dir_fs"`
}

type result struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Record    runRecord              `json:"record"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Failures  []string               `json:"failures,omitempty"`
	Notes     []string               `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	// MachineSpeed is the run's overall speed relative to the nominal
	// machine, from RefReadings timings of the reference kernel (calib.go).
	MachineSpeed float64 `json:"machine_speed"`
	RefReadings  int     `json:"reference_readings"`

	order []string   // emission order, for the human table
	ref   *reference // timed between passes/rounds by the workload
}

func newResult(workload string, trace bool, rec runRecord) *result {
	return &result{Workload: workload, Trace: trace, Record: rec, Metrics: map[string]metricValue{}, ref: newReference()}
}

// set records a metric. The name must be in the catalog and may be emitted
// only once per run: both are bugs in the benchmark, reported as failures
// so the smoke test and the driver see them.
func (r *result) set(name string, value float64, samples int) {
	r.setSpread(name, value, samples, 0)
}

func (r *result) setSpread(name string, value float64, samples int, spread float64) {
	def, ok := findMetric(name)
	if !ok {
		r.fail("metric %q is not in the catalog", name)
		return
	}
	if _, dup := r.Metrics[name]; dup {
		r.fail("metric %q emitted twice", name)
		return
	}
	if math.IsNaN(value) || math.IsInf(value, 0) {
		r.fail("metric %q is %v", name, value)
		return
	}
	r.Metrics[name] = metricValue{Value: value, Unit: def.Unit, Samples: samples, Spread: spread}
	r.order = append(r.order, name)
}

// op counts one attempted operation (or oracle check).
func (r *result) op() { r.Attempted++ }

// fail counts one failed operation or oracle check and keeps the first few
// messages.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Failures) < 20 {
		r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
	}
}

// check is one oracle comparison: attempted, and failed unless ok.
func (r *result) check(ok bool, format string, args ...any) {
	r.op()
	if !ok {
		r.fail(format, args...)
	}
}

func (r *result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// expected lists the metrics of the run's contract line: every end-to-end
// metric with tracing off, every per-layer metric on a traced run.
func (r *result) expected() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// finish closes the run: a metric this run owed and did not measure is a
// failure (an end-to-end metric must be measured, and non-zero, on every
// workload); then failed_frac and the verdict.
func (r *result) finish() {
	r.MachineSpeed, r.RefReadings = r.ref.speed(), len(r.ref.readings)
	for _, def := range r.expected() {
		if def.Name != "failed_frac" && def.on(r.Workload) {
			_, ok := r.Metrics[def.Name]
			r.check(ok, "metric %q was not measured", def.Name)
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("no operation was attempted")
	}
	r.set("failed_frac", float64(r.Failed)/float64(r.Attempted), r.Attempted)
	r.Correct = r.Failed == 0
}

// print writes the human-readable table.
func (r *result) print() {
	mode := "end-to-end (tracing off)"
	if r.Trace {
		mode = "traced run (per-layer)"
	}
	rec := r.Record
	fmt.Printf("== workload %s — %s\n", r.Workload, mode)
	fmt.Printf("   commit %s, %s, nproc %d, GOMAXPROCS %d, seed %d, window %ds, fsync policy: %s, temp dir on %s\n",
		rec.Commit, rec.GoVersion, rec.NumCPU, rec.GOMAXPROCS, rec.Seed, rec.Seconds, rec.FsyncEvery, rec.TempFS)
	fmt.Printf("   machine speed %.3f (reference kernel: median of %d readings against %.1f ms nominal); times are in reference-machine time, raw = as measured\n",
		r.MachineSpeed, r.RefReadings, referenceNominalMs)
	for _, name := range r.order {
		m := r.Metrics[name]
		line := fmt.Sprintf("   %-32s %14.4f %-8s n=%d", name, m.Value, m.Unit, m.Samples)
		if m.Raw != 0 {
			line += fmt.Sprintf("  raw=%.4f", m.Raw)
		}
		if m.Spread > 0 {
			line += fmt.Sprintf("  spread=%.1f%%", 100*m.Spread)
		}
		fmt.Println(line)
	}
	for _, n := range r.Notes {
		fmt.Println("   note:", n)
	}
	fmt.Printf("   attempted %d, failed %d (failed_frac %.6f)\n", r.Attempted, r.Failed, float64(r.Failed)/float64(r.Attempted))
	for _, f := range r.Failures {
		fmt.Println("   FAILED:", f)
	}
}

// write stores the full result under dir and returns the path.
func (r *result) write(dir string) (string, error) {
	name := r.Workload + ".json"
	if r.Trace {
		name = r.Workload + "-trace.json"
	}
	path := filepath.Join(dir, name)
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

// contractLine renders the driver's result object. A per-layer metric this
// workload does not measure reads 0.
func (r *result) contractLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := map[string]mv{}
	for _, def := range r.expected() {
		out[def.Name] = mv{r.Metrics[def.Name].Value, def.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, out})
	if err != nil {
		panic(err) // finite floats and strings always marshal
	}
	return string(b)
}

// ---- statistics ----

// quantile is the nearest-rank p-quantile of xs (which it sorts).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

// median is the midpoint median (mean of the two central values for an
// even count), so a two-pass run does not report its faster pass.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spreadOf is the interquartile range over the median, 0 below 3 values.
func spreadOf(xs []float64) float64 {
	if len(xs) < 3 {
		return 0
	}
	s := slices.Clone(xs)
	m := median(s)
	if m == 0 {
		return 0
	}
	return (quantile(s, 0.75) - quantile(s, 0.25)) / math.Abs(m)
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// setMedian records the median of per-pass/round values with their spread.
func (r *result) setMedian(name string, perRound []float64) {
	r.setSpread(name, median(perRound), len(perRound), spreadOf(perRound))
}

// series is a sequence of timed units (rounds, passes, set-ups): each value
// as measured, and the machine speed around it (calib.go).
type series struct {
	raw, speed []float64
}

func (s *series) add(raw, speed float64) {
	s.raw = append(s.raw, raw)
	s.speed = append(s.speed, speed)
}

// ref returns the values in reference-machine time.
func (s series) ref() []float64 {
	out := make([]float64, len(s.raw))
	for i, v := range s.raw {
		out[i] = v * s.speed[i]
	}
	return out
}

// timeSetups runs setup reps times, each between two reference laps and
// after discard has dropped the previous set-up and the garbage collector
// has run, and returns the set-up times in seconds. setup returning false
// stops the repetitions.
func (r *result) timeSetups(reps int, discard func(), setup func() bool) series {
	var s series
	for ok := true; ok && len(s.raw) < reps; {
		discard()
		runtime.GC()
		r.ref.lap()
		t0 := time.Now()
		ok = setup()
		dt := time.Since(t0).Seconds()
		s.add(dt, r.ref.lap())
	}
	return s
}

// setRef records a metric reported in reference-machine time together with
// the same statistic of the raw measurements.
func (r *result) setRef(name string, value, raw float64, samples int, spread float64) {
	r.setSpread(name, value, samples, spread)
	if m, ok := r.Metrics[name]; ok {
		m.Raw = raw
		r.Metrics[name] = m
	}
}

// setRefMedian records the median unit of s, summarising samples
// measurements, in reference-machine time.
func (r *result) setRefMedian(name string, s series, samples int) {
	ref := s.ref()
	r.setRef(name, median(ref), median(s.raw), samples, spreadOf(ref))
}

// ---- process and machine facts ----

// peakRSSMB reads VmHWM, the process's resident-set high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// fsTypeOf names the filesystem holding dir, from /proc/self/mountinfo
// (longest mount-point prefix wins).
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	b, err := os.ReadFile("/proc/self/mountinfo")
	if err != nil {
		return "unknown"
	}
	best, fs := -1, "unknown"
	for _, line := range strings.Split(string(b), "\n") {
		// "... <mount point> <opts> [tags] - <fstype> <source> <superopts>"
		pre, post, ok := strings.Cut(line, " - ")
		if !ok {
			continue
		}
		f, g := strings.Fields(pre), strings.Fields(post)
		if len(f) < 5 || len(g) < 1 {
			continue
		}
		mp := f[4]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > best {
			best, fs = len(mp), g[0]
		}
	}
	return fs
}

// gitCommit reads the checked-out commit from the repository above the
// benchmark directory without starting a process; "unknown" outside git
// (the driver's checkout is not a repository).
func gitCommit() string {
	for _, root := range []string{"..", "."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		h := strings.TrimSpace(string(head))
		ref, isRef := strings.CutPrefix(h, "ref: ")
		if !isRef {
			return h
		}
		if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
			return strings.TrimSpace(string(b))
		}
		if packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs")); err == nil {
			for _, line := range strings.Split(string(packed), "\n") {
				if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
					return sha
				}
			}
		}
	}
	return "unknown"
}
