package service

import (
	"bytes"
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
// written out, not derived. A path off the grammar (/sessions/,
// /sessionsX) is served locally and labelled "other": no ring key, no
// per-session series.
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
		{"GET", "/sessions/", "", "", opLocal, "", "other"},
		{"POST", "/sessions/", "", "", opLocal, "", "other"},
		{"GET", "/sessionsX", "", "", opLocal, "", "other"},
		{"GET", "/sessionsX/query", "", "", opLocal, "", "other"},
		{"POST", "/sessions//query", "", "", opLocal, "", "other"},
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
		key := "" // routed serves opLocal without asking for a key
		switch class {
		case opCreate: // the ID the create's body digests to
			_, _, key, _ = readCreate(httptest.NewRecorder(), httptest.NewRequest(row.method, row.path, bytes.NewReader(create)))
		case opRead, opCommit: // the ID in the path
			key = id
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
	sess, _, err := n.srv.Pool().GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, pl)})
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

	// The decoding contract, one row per rule, each with the status
	// encoding/json's strict decode answered: names match after
	// unescaping, exactly or under simple case folding (U+017F, the
	// Kelvin sign); null leaves a number or bool as it is and sets a slice
	// to nil; integers parse as integers and floats within range; a
	// repeated member decodes in place; an unknown member is refused at
	// any depth.
	whatIf, batch, epochPath := "/sessions/"+sess.id+"/whatif", "/sessions/"+sess.id+"/whatif/batch", "/sessions/"+sess.id+"/epoch"
	commits := 1
	for _, row := range []struct {
		path, body string
		want       int
	}{
		{whatIf, `{"RELAX":true}`, http.StatusOK},
		{whatIf, `{"ſpeeds":[{"cluster":0,"value":50}],"relax":true}`, http.StatusOK},
		{whatIf, `{"\u0073peeds":[{"cluster":0,"value":50}],"relax":true}`, http.StatusOK},
		{whatIf, `{"linKs":[{"linK":0,"maxConnect":3}],"relax":true}`, http.StatusOK},
		{whatIf, `{"speeds":null,"gateways":[],"relax":null}`, http.StatusOK},
		{whatIf, `null`, http.StatusOK},
		{whatIf, `{"speeds":[{"cluster":1e0,"value":50}]}`, http.StatusBadRequest},
		{whatIf, `{"speeds":[{"cluster":1.0,"value":50}]}`, http.StatusBadRequest},
		{whatIf, `{"speeds":[{"cluster":0,"value":1e400}]}`, http.StatusBadRequest},
		{whatIf, `{"speeds":[{"cluster":3,"value":1}],"speeds":[{"value":60}],"relax":true}`, http.StatusOK},
		{whatIf, `{"speeds":[{"cluster":3,"value":60}],"speeds":[{"value":-1}],"relax":true}`, http.StatusBadRequest},
		{whatIf, `{"gateways":[{"cluster":-0,"value":-0}],"relax":true}`, http.StatusOK},
		{whatIf, `{"speeds":[{"cluster":0,"value":50,"extra":1}]}`, http.StatusBadRequest},
		{whatIf, `{"relax":true} ` + "\r\n", http.StatusOK},
		{batch, `{"QUERIES":[{"relax":true}],"workers":null}`, http.StatusOK},
		{batch, `{"queries":[{"relax":true,"nope":1}]}`, http.StatusBadRequest},
		{batch, `{"queries":[{"relax":true}],"workers":1e0}`, http.StatusBadRequest},
		{batch, `{"queries":null}`, http.StatusBadRequest},
		{epochPath, `{"speedFactor":[1e400,1,1,1]}`, http.StatusBadRequest},
		{epochPath, `{"speedFactor":[0.9,0.9,0.9,0.9],"bogus":[]}`, http.StatusBadRequest},
		{epochPath, `{"ſpeedFactor":[1,1,1,1],"linkFactor":null}`, http.StatusOK},
		{epochPath, `{"gatewayFactor":[1,null,1,1]}`, http.StatusBadRequest},
	} {
		code, body := post(row.path, row.body)
		if code != row.want {
			t.Errorf("POST %s %s: status %d body %q, want %d", row.path, row.body, code, body, row.want)
		}
		if row.path == epochPath && code == http.StatusOK {
			commits++
		}
	}
	if got := sess.Info().Epoch; got != commits {
		t.Fatalf("epoch %d after %d accepted commits", got, commits)
	}

	// A name spelt in another case is the same query: one entry, and the
	// second spelling is a hit on it.
	if code, body := post(whatIf, `{"relax":true}`); code != http.StatusOK || strings.Contains(body, `"cached"`) {
		t.Fatalf(`{"relax":true} after a commit: status %d, want 200 and a solve: %s`, code, body)
	}
	hits, misses := sess.answers.counters()
	if code, body := post(whatIf, `{"RELAX":true}`); code != http.StatusOK || !strings.Contains(body, `"cached": true`) {
		t.Fatalf(`{"RELAX":true} after {"relax":true}: status %d, want 200 and a cache hit: %s`, code, body)
	}
	if h, m := sess.answers.counters(); h != hits+1 || m != misses {
		t.Fatalf(`{"RELAX":true}: %d hits and %d misses, want 1 and 0`, h-hits, m-misses)
	}
}
