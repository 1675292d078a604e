package service

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// TestSessionPathRouteTable pins every decision made on the
// /sessions[/{id}[/{sub}]] grammar — the retry class, the ring key and
// the bounded endpoint label — for every route in the Server doc
// comment and a few paths that are not routes. The expectations are
// written out, not derived: they are what the four separate string
// trimmers this table's one parser replaced computed.
func TestSessionPathRouteTable(t *testing.T) {
	create, err := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 4, 7))})
	if err != nil {
		t.Fatal(err)
	}
	const created = "created" // stands for the ID the create body digests to
	createdID := sessionID(testPlatform(t, 4, 7).Fingerprint(), sessionConfig{objName: "maxmin", heur: "lprg"})
	n := NewNode(NewServer(NewPool(1)), "http://self", nil, nil)

	rows := []struct {
		method, path string
		id, sub      string
		class        opClass
		key          string // "" = no routable key
		label        string
	}{
		{"POST", "/sessions", "", "", opCreate, created, "create"},
		{"GET", "/sessions", "", "", opLocal, "", "list"},
		{"GET", "/sessions/abc", "abc", "", opRead, "abc", "info"},
		{"GET", "/sessions/abc/platform", "abc", "platform", opRead, "abc", "platform"},
		{"DELETE", "/sessions/abc", "abc", "", opRead, "abc", "delete"},
		{"POST", "/sessions/abc/query", "abc", "query", opRead, "abc", "query"},
		{"POST", "/sessions/abc/whatif", "abc", "whatif", opRead, "abc", "whatif"},
		{"POST", "/sessions/abc/whatif/batch", "abc", "whatif/batch", opRead, "abc", "whatif_batch"},
		{"POST", "/sessions/abc/epoch", "abc", "epoch", opCommit, "abc", "epoch"},
		{"GET", "/stats", "", "", opLocal, "", "stats"},
		{"GET", "/healthz", "", "", opLocal, "", "healthz"},
		{"GET", "/metrics", "", "", opLocal, "", "metrics"},
		// Not routes: the mux answers 404/405, but they are still
		// classified, routed and labelled on the way there.
		{"GET", "/sessions/x/nope", "x", "nope", opRead, "x", "other"},
		{"GET", "/sessions/abc/epoch", "abc", "epoch", opRead, "abc", "epoch"},
		{"GET", "/sessions/", "", "", opLocal, "", "list"},
		{"GET", "/sessionsX", "X", "", opRead, "X", "info"},
		{"POST", "/cluster/health", "", "", opLocal, "", "cluster"},
		{"GET", "/", "", "", opLocal, "", "other"},
	}
	for _, row := range rows {
		id, sub, ok := sessionPath(row.path)
		if id != row.id || sub != row.sub {
			t.Errorf("%s %s: parsed id %q sub %q, want %q %q", row.method, row.path, id, sub, row.id, row.sub)
		}
		if got := classify(row.method, row.path); got != row.class {
			t.Errorf("%s %s: class %d, want %d", row.method, row.path, got, row.class)
		}
		if got := endpointLabel(row.method, row.path); got != row.label {
			t.Errorf("%s %s: endpoint label %q, want %q", row.method, row.path, got, row.label)
		}
		key := ""
		if ok { // off the grammar, routed serves locally without asking for a key
			key, _, _ = n.routingKey(httptest.NewRequest(row.method, row.path, bytes.NewReader(create)), id)
		}
		want := row.key
		if want == created {
			want = createdID
		}
		if key != want {
			t.Errorf("%s %s: ring key %q, want %q", row.method, row.path, key, want)
		}
	}
}
