package service

import (
	"encoding/json"
	"net/http"
	"testing"
)

// TestStatsCarriesOnlyWhatBenchReads: /stats holds the members the
// benchmark's fixture decodes (bench/fixture.go, scrapeStats) — live,
// hits, misses, evictions, total, the session rows without a query count,
// and six cluster counters — and the rest of the one pool walk that
// /metrics and /healthz render from, and nothing else: every other
// counter is on /metrics alone. It reads the
// /stats of each node of a three-node ring and of a one-member node,
// each after a session was created and queried through it, as plain
// JSON objects, so a member no Go type names still shows.
func TestStatsCarriesOnlyWhatBenchReads(t *testing.T) {
	top := map[string]bool{"live": true, "hits": true, "misses": true, "evictions": true,
		"total": true, "sessions": true, "cluster": true}
	cluster := map[string]bool{"cacheHits": true, "cacheMisses": true, "retries": true,
		"failovers": true, "replicasSent": true, "replicaErrors": true}
	rowCounters := []string{"whatIfs", "coalescedWhatIfs", "epochs"}
	rows := 0
	check := func(name string, status int, raw []byte) {
		t.Helper()
		if status != http.StatusOK {
			t.Fatalf("%s: GET /stats status %d: %s", name, status, raw)
		}
		var st map[string]any
		if err := json.Unmarshal(raw, &st); err != nil {
			t.Fatalf("%s: %v\n%s", name, err, raw)
		}
		for k := range top {
			if _, ok := st[k]; !ok {
				t.Errorf("%s: /stats lacks %q", name, k)
			}
		}
		for k := range st {
			if !top[k] {
				t.Errorf("%s: /stats carries %q, which the benchmark does not read", name, k)
			}
		}
		cl, _ := st["cluster"].(map[string]any)
		for k := range cl {
			if !cluster[k] {
				t.Errorf("%s: /stats cluster carries %q, which the benchmark does not read", name, k)
			}
		}
		list, _ := st["sessions"].([]any)
		for _, r := range list {
			row, _ := r.(map[string]any)
			rows++
			if _, ok := row["queries"]; ok {
				t.Errorf("%s: a /stats session row carries \"queries\"", name)
			}
			for _, k := range rowCounters {
				if _, ok := row[k]; !ok {
					t.Errorf("%s: a /stats session row lacks %q", name, k)
				}
			}
		}
	}

	nodes, servers := startRing(t, 3, false)
	client := servers[0].Client()
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 4, 61))})
	for i := range nodes {
		if status, raw, err := doJSONRaw(client, "POST", servers[i].URL+"/sessions/"+created.ID+"/query", nil); err != nil || status != http.StatusOK {
			t.Fatalf("query via node %d: status %d err %v: %s", i, status, err, raw)
		}
	}
	for i := range nodes {
		status, raw, err := doJSONRaw(client, "GET", servers[i].URL+"/stats", nil)
		if err != nil {
			t.Fatal(err)
		}
		check("ring node", status, raw)
	}
	if rows != 1 {
		t.Fatalf("the ring's /stats list %d session rows, want 1", rows)
	}

	h := oneMemberNode(NewPool(4))
	body, _ := json.Marshal(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 4, 62))})
	if rec := serveReq(h, "POST", "/sessions", body); rec.Code != http.StatusCreated {
		t.Fatalf("one-member create: status %d: %s", rec.Code, rec.Body)
	}
	rec := serveReq(h, "GET", "/stats", nil)
	check("one-member node", rec.Code, rec.Body.Bytes())
	if rows != 2 {
		t.Fatalf("the one-member node's /stats list %d session rows, want 1", rows-1)
	}
}
