package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/platgen"
	"repro/internal/service"
)

// TestDocCatalogueMatchesDaemon holds the package doc to what the daemon
// serves: the metric families its two lists name (always, and in cluster
// mode) are exactly the # TYPE families a ring node's /metrics exposes;
// the labels it names on them ({endpoint}, {session}, …) are exactly the
// label keys on the sample lines of a two-node ring that has heartbeated
// and served one session (bar a histogram's le); and its condition list
// is exactly the service's Cond* condition types. A failure names the
// drift in both directions.
func TestDocCatalogueMatchesDaemon(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "main.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	docMetrics, docLabels, docConds := docCatalogue(f.Doc.Text())

	ring := newRing(t, 2)
	client := ring[0].Client()
	// Each node has probed the other once: the per-peer RTT gauge is set.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		probed := true
		for _, ts := range ring {
			probed = probed && strings.Contains(scrape(t, ts), "schedd_heartbeat_rtt_seconds{")
		}
		if probed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the ring's nodes did not probe each other within 10s")
		}
	}
	pl, err := platgen.Generate(platgen.Params{
		K: 4, Connectivity: 0.6, Heterogeneity: 0.6, MeanG: 450, MeanBW: 10, MeanMaxCon: 5,
	}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := pl.Encode()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(service.CreateSessionRequest{Platform: raw})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(ring[0].URL+"/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var created service.CreateSessionResponse
	err = json.NewDecoder(resp.Body).Decode(&created)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d err %v", resp.StatusCode, err)
	}
	if resp, err = client.Post(ring[0].URL+"/sessions/"+created.ID+"/query", "application/json", nil); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var served, labels []string
	for i, ts := range ring {
		families, keys := exposition(scrape(t, ts))
		if i == 0 {
			served = families
		}
		labels = append(labels, keys...)
	}
	drift(t, "metric family", "/metrics", docMetrics, served)
	drift(t, "metric label", "the ring's /metrics samples", docLabels, labels)
	drift(t, "condition type", "internal/service's Cond* constants", docConds, conditionTypes(t))
}

// newRing starts n in-process ring nodes that know each other and
// heartbeat, and stops them when the test ends.
func newRing(t *testing.T, n int) []*httptest.Server {
	t.Helper()
	servers := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range servers {
		servers[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + servers[i].Listener.Addr().String()
	}
	for i, ts := range servers {
		node := service.NewNodeWithConfig(service.NewServer(service.NewPool(4)), urls[i], urls, nil,
			service.NodeConfig{Heartbeat: 20 * time.Millisecond})
		ts.Config.Handler = node.Handler()
		ts.Start()
		node.Start()
		t.Cleanup(ts.Close)
		t.Cleanup(node.Stop)
	}
	return servers
}

// scrape returns one /metrics body.
func scrape(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// exposition reads a /metrics body's # TYPE families and, as
// family{key}, the label keys on each family's sample lines — the family
// being the last # TYPE line above the sample — but a histogram bucket's
// le.
func exposition(body string) (families, labels []string) {
	family := ""
	for _, line := range strings.Split(body, "\n") {
		if fields := strings.Fields(line); len(fields) >= 3 && fields[0] == "#" && fields[1] == "TYPE" {
			family = fields[2]
			families = append(families, family)
			continue
		}
		_, set, ok := strings.Cut(line, "{")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		set, _, _ = strings.Cut(set, "}")
		for _, pair := range strings.Split(set, ",") {
			if key, _, _ := strings.Cut(pair, "="); key != "le" {
				labels = append(labels, family+"{"+key+"}")
			}
		}
	}
	return families, labels
}

// docCatalogue reads the package doc's two metric lists — the schedd_*
// names, comma-separated, ahead of the description on each indented line,
// and the family{label} each names a label on — and its condition list,
// the first word of each indented line in the block that follows the
// paragraph introducing the health conditions.
func docCatalogue(doc string) (metrics, labels, conds []string) {
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
				name, label, ok := strings.Cut(strings.TrimSpace(name), "{")
				metrics = append(metrics, name)
				if ok {
					labels = append(labels, name+"{"+label)
				}
			}
		}
	}
	return metrics, labels, conds
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
