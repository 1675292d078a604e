package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// uncalledExports are the exported functions and methods under
// internal/ that no non-test code names, kept on purpose, each with its
// reason. An entry is "<package dir>.<Recv>.<Name>", or
// "<package dir>.<Name>" for a function.
var uncalledExports = map[string]string{
	"lp.Problem.RHS":           "test accessor: tests read a row's right-hand side to perturb it",
	"lp.Basis.Export":          "test accessor: tests keep a copy of a basis; the snapshot sealer reads View",
	"lp.Revised.ResetStats":    "test accessor: tests zero the counters before measuring a solve",
	"cluster.Ring.Has":         "test accessor: tests check which members a ring holds",
	"cluster.Store.Dir":        "test accessor: tests read a node's snapshot files from its store's directory",
	"obs.Counter.Inc":          "test accessor: tests count single events; the service records through Add and Set",
	"obs.Histogram.Count":      "test accessor: tests read a histogram's observation count",
	"obs.Histogram.SumSeconds": "test accessor: tests read a histogram's observed total",
	"obs.Histogram.Quantile":   "test accessor: tests read a histogram's quantiles",
	"netsim.SimulateFlowsTCP":  "the RTT refinement of §2's flow model that ROADMAP item 14 measures §6's schedules with",
}

// exemptExportDirs hold test support: code that exists for tests to
// call, so a test is its caller.
var exemptExportDirs = map[string]bool{
	"internal/lp/lptest": true,
	"internal/chaos":     true,
}

// interfaceMethods are standard-library interface methods that the
// library calls by interface, so no file of this module names them.
var interfaceMethods = map[string]bool{
	"Less": true, "Swap": true, "Unwrap": true, "Timeout": true, "Temporary": true,
}

// TestEveryExportHasACaller: every exported top-level function or
// method declared in a non-test file under internal/ is named by some
// non-test file of the module — another package, a command, an
// example, the benchmark, or its own package — outside its own
// declaration. The match is by name alone: a name declared twice
// counts as used when it is named more often than it is declared, so
// the check can miss a dead declaration but never flags a used one.
// Exported code that only tests reach is surface nothing runs; delete
// it, or list it above with the reason it stays.
func TestEveryExportHasACaller(t *testing.T) {
	fset := token.NewFileSet()
	named := map[string]int{}    // identifier → occurrences in non-test code
	declared := map[string]int{} // exported function or method name → declarations
	type decl struct{ key, name, at string }
	var decls []decl
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
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				named[id.Name]++
			}
			return true
		})
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(dir, "internal/") || exemptExportDirs[dir] {
			return nil
		}
		for _, dd := range f.Decls {
			fd, ok := dd.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || interfaceMethods[fd.Name.Name] {
				continue
			}
			key := filepath.Base(dir) + "."
			if fd.Recv != nil {
				key += recvName(fd.Recv.List[0].Type) + "."
			}
			key += fd.Name.Name
			declared[fd.Name.Name]++
			decls = append(decls, decl{key, fd.Name.Name, fset.Position(fd.Pos()).String()})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported declaration under internal/; the walk is broken")
	}
	var dead []string
	seen := map[string]bool{}
	for _, d := range decls {
		_, allowed := uncalledExports[d.key]
		used := named[d.name] > declared[d.name]
		switch {
		case used && allowed:
			t.Errorf("%s: %s is named by non-test code; drop it from uncalledExports", d.at, d.key)
		case !used && !allowed:
			dead = append(dead, d.at+": "+d.key)
		}
		seen[d.key] = true
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s has no caller outside tests", d)
	}
	for key := range uncalledExports {
		if seen[key] {
			continue
		}
		t.Errorf("uncalledExports lists %s, which is not declared", key)
	}
}

// recvName is the type name of a method receiver: T for T, *T, T[P]
// and *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return "?"
		}
	}
}
