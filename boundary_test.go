package repro

import (
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// goList runs `go list` with the given arguments and returns the words of
// its output.
func goList(t *testing.T, args ...string) []string {
	t.Helper()
	out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
	if err != nil {
		t.Fatalf("go list %v: %v", args, err)
	}
	return strings.Fields(strings.NewReplacer("[", " ", "]", " ").Replace(string(out)))
}

// TestServingDependencyBoundary fences the serving path off from the
// reproduction rig, and the engine off from the machine's internals — the
// seams a real-RPC machine would be built on: repro/huge reaches neither
// the baseline systems nor the experiment harness; the engine talks to a
// machine through cluster.MachineExec and never to its cache; the graph
// package depends on nothing in the module; standing queries are one table
// in repro/huge, not a registry type in the planner.
func TestServingDependencyBoundary(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("no go tool on PATH")
	}
	for _, dep := range goList(t, "-deps", "repro/huge") {
		if dep == "repro/internal/baseline" || dep == "repro/internal/exp" {
			t.Errorf("repro/huge depends on %s", dep)
		}
	}
	engine := goList(t, "-f", "{{.Imports}}", "repro/internal/engine")
	if slices.Contains(engine, "repro/internal/cache") {
		t.Error("repro/internal/engine imports repro/internal/cache: the cache protocol belongs to cluster.MachineExec")
	}
	if !slices.Contains(engine, "repro/internal/cluster") {
		t.Errorf("repro/internal/engine does not import repro/internal/cluster (go list printed %v)", engine)
	}
	for _, imp := range goList(t, "-f", "{{.Imports}}", "repro/internal/graph") {
		if strings.HasPrefix(imp, "repro/") {
			t.Errorf("repro/internal/graph imports %s", imp)
		}
	}
	files, _ := filepath.Glob("internal/plan/*.go")
	for _, f := range files {
		if src, err := os.ReadFile(f); err != nil {
			t.Error(err)
		} else if decl := regexp.MustCompile(`(?m)^(type|func) (New)?Registry\b`).Find(src); decl != nil {
			t.Errorf("%s declares %q: subscribers are huge's subscriptions table, not a planner concept", f, decl)
		}
	}
	if len(files) == 0 {
		t.Error("no Go files found under internal/plan: the Registry check looked at nothing")
	}
}
