package service

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
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
		class := classify(row.method, id, sub, ok)
		if class != row.class {
			t.Errorf("%s %s: class %d, want %d", row.method, row.path, class, row.class)
		}
		if got := endpointLabel(row.method, row.path); got != row.label {
			t.Errorf("%s %s: endpoint label %q, want %q", row.method, row.path, got, row.label)
		}
		key := ""
		if class != opLocal { // routed serves opLocal without asking for a key
			key = ringKey(class, id, create)
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

// TestRequestBodiesDecodeStrictly: every JSON request body is one value
// and nothing after it but whitespace. A second concatenated value used
// to be dropped silently (the first was answered), and trailing garbage
// ignored.
func TestRequestBodiesDecodeStrictly(t *testing.T) {
	const K = 4
	pl := testPlatform(t, K, 7)
	n := NewNodeWithConfig(NewServer(NewPool(2)), "http://self", nil, nil, NodeConfig{})
	create, err := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	if err != nil {
		t.Fatal(err)
	}
	sess, _, _, err := n.srv.Pool().GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, pl)})
	if err != nil {
		t.Fatal(err)
	}
	epoch, err := json.Marshal(&EpochRequest{SpeedFactor: driftFactors(K, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	endpoints := []struct{ path, body string }{
		{"/sessions", string(create)},
		{"/sessions/" + sess.id + "/whatif", `{"relax":true}`},
		{"/sessions/" + sess.id + "/whatif/batch", `{"queries":[{"relax":true}]}`},
		{"/sessions/" + sess.id + "/epoch", string(epoch)},
		{"/cluster/forget", `{"id":"no-such-session"}`},
	}
	post := func(path, body string) (int, string) {
		rec := httptest.NewRecorder()
		n.Handler().ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, ep := range endpoints {
		for name, suffix := range map[string]string{
			"second value":     ep.body,
			"trailing garbage": " trailing garbage",
			"stray bracket":    "\n]",
		} {
			code, body := post(ep.path, ep.body+suffix)
			if code != http.StatusBadRequest || !strings.Contains(body, "decoding request: ") {
				t.Errorf("POST %s, %s: status %d body %q, want 400 decoding request: …", ep.path, name, code, body)
			}
		}
		if got := sess.Info().Epoch; got != 0 {
			t.Fatalf("POST %s: a refused body committed an epoch", ep.path)
		}
	}
	for _, ep := range endpoints {
		if code, body := post(ep.path, ep.body+" \r\n\t\n"); code != http.StatusOK {
			t.Errorf("POST %s with trailing whitespace: status %d body %q, want 200", ep.path, code, body)
		}
	}
	if got := sess.Info().Epoch; got != 1 {
		t.Fatalf("epoch %d after one accepted commit, want 1", got)
	}
}
