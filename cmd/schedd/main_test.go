package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/service"
)

// TestDocCatalogueMatchesDaemon holds the package doc to what the daemon
// serves: the metric families its two lists name (always, and in cluster
// mode) are exactly the # TYPE families a ring node's /metrics exposes,
// and its condition list is exactly the service's Cond* condition types.
// A failure names the drift in both directions.
func TestDocCatalogueMatchesDaemon(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docMetrics, docConds := docCatalogue(f.Doc.Text())

	ts := httptest.NewServer(service.NewNode(service.NewServer(service.NewPool(4)), "http://node-a", nil, nil).Handler())
	defer ts.Close()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var served []string
	for _, line := range strings.Split(string(body), "\n") {
		if fields := strings.Fields(line); len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" {
			served = append(served, fields[2])
		}
	}
	drift(t, "metric family", "/metrics", docMetrics, served)
	drift(t, "condition type", "internal/service's Cond* constants", docConds, conditionTypes(t))
}

// docCatalogue reads the package doc's two metric lists — the schedd_*
// names, comma-separated, ahead of the description on each indented line
// — and its condition list, the first word of each indented line in the
// block that follows the paragraph introducing the health conditions.
func docCatalogue(doc string) (metrics, conds []string) {
	inConds := false
	for _, line := range strings.Split(doc, "\n") {
		indented := strings.HasPrefix(line, "\t")
		body := strings.TrimSpace(line)
		switch {
		case strings.Contains(line, "health conditions"):
			inConds = true
		case inConds && indented:
			conds = append(conds, strings.Fields(body)[0])
		case inConds && body != "" && len(conds) > 0:
			inConds = false
		case indented && strings.HasPrefix(body, "schedd_"):
			names, _, _ := strings.Cut(body, "  ") // the description follows two spaces
			for _, name := range strings.Split(names, ",") {
				name, _, _ = strings.Cut(strings.TrimSpace(name), "{")
				metrics = append(metrics, name)
			}
		}
	}
	return metrics, conds
}

// conditionTypes reads the values of the service's "Condition types."
// constant block.
func conditionTypes(t *testing.T) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), "../../internal/service/conditions.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST || gd.Doc == nil || strings.TrimSpace(gd.Doc.Text()) != "Condition types." {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				lit, ok := vs.Values[i].(*ast.BasicLit)
				if !strings.HasPrefix(name.Name, "Cond") || !ok {
					t.Fatalf("condition type %s is not a Cond* string literal", name.Name)
				}
				v, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, v)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal(`no "Condition types." constant block in internal/service/conditions.go`)
	}
	return out
}

// drift fails the test with every name one side lists and the other
// does not.
func drift(t *testing.T, what, where string, doc, actual []string) {
	t.Helper()
	missing, stale := minus(actual, doc), minus(doc, actual)
	if len(missing) > 0 || len(stale) > 0 {
		t.Errorf("%s drift between the package doc and %s:\n  undocumented: %v\n  documented but absent: %v", what, where, missing, stale)
	}
}

// minus lists the names in a that b lacks, sorted and once each.
func minus(a, b []string) []string {
	var out []string
	for _, s := range a {
		if !slices.Contains(b, s) && !slices.Contains(out, s) {
			out = append(out, s)
		}
	}
	slices.Sort(out)
	return out
}
