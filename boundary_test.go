package repro

import (
	"go/ast"
	"go/parser"
	"go/scanner"
	"go/token"
	"io/fs"
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
// in repro/huge, not a registry type in the planner; and the paper's
// baseline plan families are built by the experiment rig, not by huge.
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
	baselinePlans := regexp.MustCompile(`\b(SEEDPlan|RADSPlan|BENUPlan|EmptyHeadedPlan|GraphFlowPlan|ReconfigurePhysical)\b`)
	files, _ = filepath.Glob("huge/*.go")
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		if src, err := os.ReadFile(f); err != nil {
			t.Error(err)
		} else if name := baselinePlans.Find(src); name != nil {
			t.Errorf("%s names %s: the paper's baseline plan families are built by internal/exp (FamilyPlan), not by huge", f, name)
		}
	}
	if len(files) == 0 {
		t.Error("no Go files found under huge: the baseline-plan check looked at nothing")
	}
}

// testOracles are the exported internal identifiers meant to be called
// from tests only, each with the reason it stays exported.
var testOracles = map[string]string{
	"baseline.GroundTruthGroupedCount": "the GroupBy oracle of huge's grouped-aggregation suites",
	"baseline.GroundTruthPinnedCount":  "the pinned-edge oracle of huge's delta and standing-query suites",
}

// TestNoTestOnlyExports keeps internal packages exporting only what
// production code calls: the name of every exported top-level identifier
// declared in a non-test file under internal/ must occur as an identifier
// token in non-test Go code somewhere besides its declarations — bench/,
// cmd/, examples/, gpm/ and huge/ included; comments, strings and _test.go
// files do not count. Matching is by name, so a method whose name another
// type also uses may slip through, but an identifier that is used is never
// reported.
func TestNoTestOnlyExports(t *testing.T) {
	type decl struct{ pkg, name, file string }
	var decls []decl                // exported top-level declarations under internal/
	declared := map[string]int{}    // name -> top-level declarations anywhere
	occurrences := map[string]int{} // name -> identifier tokens anywhere
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		var s scanner.Scanner
		s.Init(fset.AddFile(path, -1, len(src)), src, nil, 0)
		for {
			_, tok, lit := s.Scan()
			if tok == token.EOF {
				break
			}
			if tok == token.IDENT {
				occurrences[lit]++
			}
		}
		f, err := parser.ParseFile(fset, path, src, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		internal := strings.HasPrefix(filepath.ToSlash(path), "internal/")
		add := func(id *ast.Ident) {
			declared[id.Name]++
			if internal && id.IsExported() {
				decls = append(decls, decl{f.Name.Name, id.Name, path})
			}
		}
		for _, dd := range f.Decls {
			switch dd := dd.(type) {
			case *ast.FuncDecl:
				add(dd.Name)
			case *ast.GenDecl:
				for _, spec := range dd.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("no exported identifiers found under internal/: the scan looked at nothing")
	}
	for _, d := range decls {
		key := d.pkg + "." + d.name
		if _, ok := testOracles[key]; ok {
			continue
		}
		if occurrences[d.name] <= declared[d.name] {
			t.Errorf("%s (%s) is exported, but only tests use it: delete or unexport it, or move it into a _test.go file", key, d.file)
		}
	}
	for key := range testOracles {
		pkg, name, _ := strings.Cut(key, ".")
		if !slices.ContainsFunc(decls, func(d decl) bool { return d.pkg == pkg && d.name == name }) {
			t.Errorf("allowlisted %s is no longer declared: drop it from testOracles", key)
		}
	}
}
