package service

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

// withCachedLine is what a cache hit's body must be: the body of the
// response that populated the entry with the line `  "cached": true`
// added where the encoder writes it, after "epoch", its last member.
func withCachedLine(t testing.TB, populated []byte) []byte {
	t.Helper()
	at := bytes.LastIndex(populated, []byte("\n  \"epoch\": "))
	if at < 0 || bytes.Contains(populated, []byte(`"cached"`)) || bytes.Contains(populated, []byte(`"coalesced"`)) {
		t.Fatalf("not the body of a solved, unshared answer:\n%s", populated)
	}
	end := at + 1 + bytes.IndexByte(populated[at+1:], '\n')
	return append(append(append([]byte(nil), populated[:end]...), ",\n  \"cached\": true"...), populated[end:]...)
}

// serve runs one request through h and returns the recorder.
func serve(h http.Handler, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// okBody is serve for a request that must answer 200 with
// Content-Length equal to its body.
func okBody(t testing.TB, h http.Handler, path, body string) []byte {
	t.Helper()
	rec := serve(h, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", path, rec.Code, rec.Body)
	}
	if got, want := rec.Header().Get("Content-Length"), rec.Body.Len(); got != strconv.Itoa(want) {
		t.Fatalf("POST %s: Content-Length %q on a %d-byte body", path, got, want)
	}
	return rec.Body.Bytes()
}

// imageFixture is one session behind a Server handler.
func imageFixture(t testing.TB, k int, seed int64, heur string) (http.Handler, *Session, string) {
	t.Helper()
	pool := NewPool(4)
	sess, _, err := pool.GetOrCreate(&CreateSessionRequest{
		Platform: platformJSON(t, testPlatform(t, k, seed)), Heuristic: heur,
	})
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(pool).Handler(), sess, "/sessions/" + sess.id
}

// TestCacheHitIsPopulatingBodyPlusCachedLine is image test (a): for
// the query and for heuristic, relaxed, β-boxed and infeasible
// what-ifs, under two heuristics, a hit's bytes are the populating
// response's bytes with only the cached line inserted — and every
// later hit is the same stored slice.
func TestCacheHitIsPopulatingBodyPlusCachedLine(t *testing.T) {
	for _, heur := range []string{"lprg", "lprr"} {
		h, sess, base := imageFixture(t, 8, 91, heur)
		route := sess.model.BetaVars()[0]
		requests := []struct{ name, path, body string }{
			{"query", base + "/query", ""},
			{"heuristic what-if", base + "/whatif", `{"speeds":[{"cluster":0,"value":5}]}`},
			{"relaxed what-if", base + "/whatif", `{"gateways":[{"cluster":1,"value":100}],"relax":true}`},
			{"boxed what-if", base + "/whatif", strings.NewReplacer("K", strconv.Itoa(route.K), "L", strconv.Itoa(route.L)).
				Replace(`{"bounds":[{"from":K,"to":L,"lb":0,"ub":1}]}`)},
			{"infeasible what-if", base + "/whatif", strings.NewReplacer("K", strconv.Itoa(route.K), "L", strconv.Itoa(route.L)).
				Replace(`{"bounds":[{"from":K,"to":L,"lb":1e9,"ub":-1}]}`)},
		}
		for _, rq := range requests {
			// A query reads the committed answer, populated by the commit
			// solve: its populating body is that solve's, run again.
			var populated []byte
			if rq.body == "" {
				populated = committedBody(t, sess)
			} else {
				populated = okBody(t, h, rq.path, rq.body)
			}
			want := withCachedLine(t, populated)
			for hit := 1; hit <= 3; hit++ {
				if got := okBody(t, h, rq.path, rq.body); !bytes.Equal(got, want) {
					t.Fatalf("%s %s: hit %d is not the populating body plus the cached line\ngot:\n%s\nwant:\n%s", heur, rq.name, hit, got, want)
				}
			}
			// The in-process API still answers the same report.
			direct, err := sess.Query()
			if rq.body != "" {
				var req WhatIfRequest
				json.Unmarshal([]byte(rq.body), &req) //nolint:errcheck // literal above
				direct, err = sess.WhatIf(&req)
			}
			if err != nil || !direct.Cached || !bytes.Equal(mustEncode(t, direct), want) {
				t.Fatalf("%s %s: Session API hit (%v) differs from the HTTP hit", heur, rq.name, err)
			}
		}
	}
}

func mustEncode(t testing.TB, rep *SolveReport) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := EncodeReport(&buf, rep); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestImageNeverOutlivesItsState is image test (b): once an epoch
// commits, no read serves pre-commit bytes — the state digest rotates,
// so the old entries and their images are unreachable, and the commit
// publishes a new committed answer — a flush drops images with their
// entries, and a committed answer solved again replaces the one a query
// read, image and all.
func TestImageNeverOutlivesItsState(t *testing.T) {
	h, sess, base := imageFixture(t, 8, 92, "lprg")
	whatIf := `{"gateways":[{"cluster":1,"value":100}],"relax":true}`
	preQuery := okBody(t, h, base+"/query", "")
	okBody(t, h, base+"/whatif", whatIf)
	preWhatIf := okBody(t, h, base+"/whatif", whatIf) // a hit: the image exists

	commit := okBody(t, h, base+"/epoch", `{"speedFactor":[0.8,0.8,0.8,0.8,0.8,0.8,0.8,0.8]}`)
	// The commit published its own answer, so the next query reads it:
	// its image is the commit's body.
	postQuery := okBody(t, h, base+"/query", "")
	if !bytes.Equal(postQuery, withCachedLine(t, commit)) || bytes.Equal(postQuery, preQuery) {
		t.Fatalf("query after the commit is not the commit's answer:\n%s", postQuery)
	}
	postWhatIf := okBody(t, h, base+"/whatif", whatIf)
	if bytes.Contains(postWhatIf, []byte(`"cached"`)) || !bytes.Contains(postWhatIf, []byte("\n  \"epoch\": 1\n")) || bytes.Equal(postWhatIf, preWhatIf) {
		t.Fatalf("what-if after the commit was not re-solved at epoch 1:\n%s", postWhatIf)
	}

	_, before, _ := sess.query()
	sess.answers.flush()
	if n := sess.answers.order.Len(); n != 0 {
		t.Fatalf("%d entries survive a flush", n)
	}
	resolved := committedBody(t, sess)
	if bytes.Contains(resolved, []byte(`"cached"`)) {
		t.Fatalf("the committed answer solved again claims a hit:\n%s", resolved)
	}
	_, after, _ := sess.query()
	if before == nil || after == nil || before == after || &before.wire()[0] == &after.wire()[0] {
		t.Fatal("the replaced committed answer's image is still being served")
	}
	if !bytes.Equal(after.wire(), withCachedLine(t, resolved)) {
		t.Fatal("the re-populated entry's image is not its populating body plus the cached line")
	}
	if got := okBody(t, h, base+"/query", ""); !bytes.Equal(got, after.wire()) {
		t.Fatalf("the query is not the re-populated answer's image:\n%s", got)
	}
}

// TestImageBuiltOnceUnderConcurrentHits is image test (c): 32
// goroutines released together onto an entry nobody has read yet all
// get identical bytes, from one build (one backing array). Run under
// -race this is also the data-race check on the lazy build.
func TestImageBuiltOnceUnderConcurrentHits(t *testing.T) {
	h, sess, base := imageFixture(t, 8, 93, "lprg")
	whatIf := `{"speeds":[{"cluster":2,"value":7}],"relax":true}`
	populated := okBody(t, h, base+"/whatif", whatIf)
	var req WhatIfRequest
	json.Unmarshal([]byte(whatIf), &req) //nolint:errcheck // literal above

	const n = 32
	var (
		wg     sync.WaitGroup
		start  = make(chan struct{})
		bodies [n][]byte
		images [n]*byte
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			if i%2 == 0 {
				bodies[i] = serve(h, base+"/whatif", whatIf).Body.Bytes()
			}
			_, hit, err := sess.whatIf(&req)
			if err != nil || hit == nil {
				t.Errorf("goroutine %d: no hit (%v)", i, err)
				return
			}
			images[i] = unsafe.SliceData(hit.wire())
		}(i)
	}
	close(start)
	wg.Wait()
	want := withCachedLine(t, populated)
	for i := 0; i < n; i++ {
		if images[i] != images[0] {
			t.Fatalf("goroutine %d was served a different image build than goroutine 0", i)
		}
		if i%2 == 0 && !bytes.Equal(bodies[i], want) {
			t.Fatalf("goroutine %d: body differs from the populating body plus the cached line:\n%s", i, bodies[i])
		}
	}
}

// TestRingReadsAreByteIdentical is image test (d), and what the
// benchmark's ring_adapt oracle checks: after a commit, the same read
// entering by each of three nodes — one owner, two forwarders — returns
// identical bytes, the commit's own answer plus the cached line, whole
// (Content-Length, no chunking) on every hop.
func TestRingReadsAreByteIdentical(t *testing.T) {
	_, servers := startRing(t, 3, false)
	client := servers[0].Client()
	pl := testPlatform(t, 6, 94)
	created := ringCreate(t, client, servers[0].URL, &CreateSessionRequest{Platform: platformJSON(t, pl)})
	path := "/sessions/" + created.ID
	_, commit, err := doJSONRaw(client, "POST", servers[1].URL+path+"/epoch", &EpochRequest{SpeedFactor: driftFactors(created.K, 0.9)})
	if err != nil {
		t.Fatal(err)
	}
	want := withCachedLine(t, commit)
	for i, srv := range servers {
		resp, err := client.Post(srv.URL+path+"/query", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body) //nolint:errcheck // compared below
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(got.Len()) || len(resp.TransferEncoding) != 0 {
			t.Fatalf("node %d: status %d, Content-Length %d for %d bytes, transfer encoding %v",
				i, resp.StatusCode, resp.ContentLength, got.Len(), resp.TransferEncoding)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("node %d: read differs from the commit's answer plus the cached line:\n%s", i, got.Bytes())
		}
	}
}

// TestCommitRetryBytesUnchanged is the commit half of image test (e)
// (the coalescing half rides TestWhatIfCoalescing): a tagged commit and
// its retry answer byte-identical bodies from the dedup record — never
// a cache image, so never a cached flag — in encoding/json's bytes.
func TestCommitRetryBytesUnchanged(t *testing.T) {
	h, sess, base := imageFixture(t, 8, 95, "lprg")
	commit := func() []byte {
		req := httptest.NewRequest("POST", base+"/epoch", strings.NewReader(`{"gatewayFactor":[0.9,0.9,0.9,0.9,0.9,0.9,0.9,0.9]}`))
		req.Header.Set(commitIDHeader, "commit-A")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("commit: status %d: %s", rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	first, retry := commit(), commit()
	if !bytes.Equal(first, retry) || bytes.Contains(retry, []byte(`"cached"`)) {
		t.Fatalf("retried commit differs from the original:\n%s\nvs\n%s", retry, first)
	}
	if sess.Info().Epoch != 1 || len(sess.state.Load().records) != 1 {
		t.Fatalf("epoch %d with %d dedup records, want 1 and 1", sess.Info().Epoch, len(sess.state.Load().records))
	}
	var recorded SolveReport
	if err := json.Unmarshal(sess.state.Load().records[0].wire, &recorded); err != nil {
		t.Fatal(err)
	}
	want, err := oracleBytes(&recorded)
	if err != nil || !bytes.Equal(first, want) {
		t.Fatalf("commit body is not encoding/json's rendering of the recorded report (%v):\n%s", err, first)
	}
}

// measureHit primes a relaxed what-if on a fresh K-cluster session and
// returns what one further hit through Server.Handler() allocates, in
// objects and bytes, and the body's length. The recorder's body buffer
// is preallocated: it is the test's, not the handler's doing.
func measureHit(t *testing.T, k int) (allocs float64, bytesPerHit uint64, bodyLen int) {
	t.Helper()
	h, _, base := imageFixture(t, k, 96, "lprg")
	whatIf := `{"speeds":[{"cluster":3,"value":40}],"relax":true}`
	okBody(t, h, base+"/whatif", whatIf)
	bodyLen = len(okBody(t, h, base+"/whatif", whatIf)) // the first hit builds the image
	sink := bytes.NewBuffer(make([]byte, 0, 2*bodyLen))
	hit := func() {
		sink.Reset()
		rec := httptest.NewRecorder()
		rec.Body = sink
		h.ServeHTTP(rec, httptest.NewRequest("POST", base+"/whatif", strings.NewReader(whatIf)))
		if rec.Code != http.StatusOK || sink.Len() != bodyLen {
			t.Fatalf("hit: status %d, %d bytes, want 200 and %d", rec.Code, sink.Len(), bodyLen)
		}
	}
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, hit)
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / (runs + 1), bodyLen
}

// TestCachedHitAllocCeiling is the clock-free guard on the hit path: a
// K=20 what-if hit through Server.Handler() allocates what building the
// request and the middleware cost — some thirty-five small objects,
// measured 34, under a ceiling of 45; the body is decoded into a pooled
// buffer and its key
// appended into another, and the table is searched without copying the
// key (48 when encoding/json decoded the body and json.Marshal wrote the
// key) — and no buffer that scales with the body: the K=20 hit, on a
// body 7 KiB larger than a K=5 hit's, allocates the same bytes. Before
// the wire image a hit copied the
// report and ran a reflective encode plus an indent pass here, 54 KiB
// per hit in the benchmark.
func TestCachedHitAllocCeiling(t *testing.T) {
	allocs, big, bigBody := measureHit(t, 20)
	_, small, smallBody := measureHit(t, 5)
	t.Logf("K=20: %.0f allocs, %d bytes per %d-byte hit; K=5: %d bytes per %d-byte hit", allocs, big, bigBody, small, smallBody)
	if bigBody-smallBody < 6<<10 {
		t.Fatalf("bodies are %d and %d bytes: too close to tell a body-sized buffer from noise", bigBody, smallBody)
	}
	if allocs > 45 {
		t.Fatalf("%.0f allocs per cached hit, ceiling 45", allocs)
	}
	if big > small+1<<10 {
		t.Fatalf("a hit allocates %d bytes on a %d-byte body and %d on a %d-byte one: something proportional to the body is back",
			big, bigBody, small, smallBody)
	}
}

// countingHandler is a slog.Handler that is not enabled and counts
// what reaches it anyway.
type countingHandler struct{ enabledCalls, handleCalls atomic.Int64 }

func (c *countingHandler) Enabled(context.Context, slog.Level) bool {
	c.enabledCalls.Add(1)
	return false
}
func (c *countingHandler) Handle(context.Context, slog.Record) error {
	c.handleCalls.Add(1)
	return nil
}
func (c *countingHandler) WithAttrs([]slog.Attr) slog.Handler { return c }
func (c *countingHandler) WithGroup(string) slog.Handler      { return c }

// TestRequestLineOnlyWhenEnabled pins both sides of the request
// logger: a disabled handler (the default is slog.DiscardHandler) is
// asked once per request and handed nothing, and a real one still gets
// the one line with its attributes in their order.
func TestRequestLineOnlyWhenEnabled(t *testing.T) {
	pool := NewPool(4)
	sess, _, err := pool.GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 6, 97))})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(pool)
	if srv.Logger().Enabled(context.Background(), slog.LevelError) {
		t.Fatal("the default logger is enabled: every request would format a line into nowhere")
	}
	h := srv.Handler()
	path := "/sessions/" + sess.id + "/query"

	counter := &countingHandler{}
	srv.SetLogger(slog.New(counter))
	for i := 0; i < 5; i++ {
		okBody(t, h, path, "")
	}
	if e, n := counter.enabledCalls.Load(), counter.handleCalls.Load(); e != 5 || n != 0 {
		t.Fatalf("disabled logger: %d Enabled and %d Handle calls over 5 requests, want 5 and 0", e, n)
	}

	var lines bytes.Buffer
	srv.SetLogger(slog.New(slog.NewTextHandler(&lines, nil)))
	req := httptest.NewRequest("POST", path, nil)
	req.Header.Set(traceHeader, "trace-xyz")
	h.ServeHTTP(httptest.NewRecorder(), req)
	want := regexp.MustCompile(`^time=\S+ level=INFO msg=request trace=trace-xyz method=POST path=` + regexp.QuoteMeta(path) +
		` endpoint=query status=200 dur=\S+ route=local\n$`)
	if !want.Match(lines.Bytes()) {
		t.Fatalf("request line changed:\n%s", lines.Bytes())
	}
}
