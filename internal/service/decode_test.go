package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

// oracleDecode decodes body into dst as the service decoded every body
// before the per-op decoder: encoding/json's Decoder with
// DisallowUnknownFields, then nothing but whitespace to the end, the
// whole body at most maxBodyBytes.
func oracleDecode(body []byte, dst any) error {
	if len(body) > maxBodyBytes {
		return errBodyTooLarge
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(dst)
	if err == nil {
		if _, more := dec.Token(); more != io.EOF {
			err = errors.New("trailing data after the JSON value")
		}
	}
	return err
}

// checkDecodeAgainstOracle decodes body as each of the three per-op
// request types, with the per-op decoder and with the oracle: both
// accept or both refuse, an accepted body decodes to deeply equal
// values, and every what-if it holds — a batch query with Relax set, as
// the batch keys it — keys to the bytes json.Marshal renders it in.
func checkDecodeAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	same := func(what string, gotErr, wantErr error, got, want any) bool {
		t.Helper()
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s %q: decoder says %v, encoding/json says %v", what, body, gotErr, wantErr)
		}
		if gotErr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %q: decoded %#v, encoding/json %#v", what, body, got, want)
		}
		return gotErr == nil
	}
	key := func(q *WhatIfRequest) {
		t.Helper()
		want, err := json.Marshal(q)
		if err != nil {
			t.Fatalf("%q: json.Marshal(%#v): %v", body, q, err)
		}
		got, ok := appendWhatIfKey([]byte("x"), q)
		if !ok || string(got[1:]) != string(want) {
			t.Fatalf("%q: key %s (ok %v), json.Marshal %s", body, got[1:], ok, want)
		}
	}

	var q, wantQ WhatIfRequest
	if same("what-if", decodeWhatIf(body, &q), oracleDecode(body, &wantQ), q, wantQ) {
		key(&q)
	}
	var b, wantB BatchWhatIfRequest
	if same("batch", decodeBatch(body, &b), oracleDecode(body, &wantB), b, wantB) {
		for i := range b.Queries {
			q := b.Queries[i]
			q.Relax = true
			key(&q)
		}
	}
	var e, wantE EpochRequest
	same("epoch", decodeEpoch(body, &e), oracleDecode(body, &wantE), e, wantE)
}

// requestBodySeeds are the decoder's contract written out as bodies:
// name folding (an upper-case name, U+017F and the Kelvin sign, an
// escaped name, surrogate escapes), null and [] on every kind, integer
// and float parsing at their edges, a repeated member decoded in place
// (shrinking, then regrowing into the stale capacity), -0, unknown
// members at every depth, and what may and may not follow the value.
// The walk gives up on most of them, some after it has written into the
// request (null, a folded name or a repeated member after speeds), and
// encoding/json decodes the body afresh.
var requestBodySeeds = []string{
	`{"speeds":[{"cluster":1,"value":2}],"relax":null}`,
	`{"speeds":[{"cluster":1,"value":2}],"Gateways":[{"cluster":0,"value":1}]}`,
	`{"speeds":[{"cluster":1,"value":2}],"relax":true,"speeds":[{"cluster":3,"value":4}]}`,
	`{"relax":true}`,
	`{"RELAX":true}`,
	`{"Relax":true,"relax":false}`,
	`{"ſpeeds":[{"cluster":1,"value":2}]}`,
	`{"linKs":[{"linK":0,"maxConnect":3}]}`,
	`{"speeds":[{"cluster":1,"value":2}]}`,
	`{"\u0073peeds":[{"cluster":1,"value":2}]}`,
	`{"\u017Fpeeds":[],"lin\u212As":[],"Bound\u0053":[]}`,
	`{"\ud800speeds":[]}`,
	`{"\ud800\u0073peeds":[]}`,
	`{"\uD834\uDD1E":1}`,
	`{"𝄞q":1}`,
	`{"sp\"eeds":[]}`,
	`{"speeds\u0000":[]}`,
	`{"speeds":null,"gateways":[],"links":[null],"bounds":[{"from":null,"to":1,"lb":null,"ub":-1}],"relax":null}`,
	`{"speeds":[{"cluster":1e0,"value":1}]}`,
	`{"speeds":[{"cluster":1.0,"value":1}]}`,
	`{"speeds":[{"cluster":9223372036854775808,"value":1}]}`,
	`{"speeds":[{"cluster":-9223372036854775808,"value":1e-400}]}`,
	`{"speeds":[{"cluster":1,"value":1e400}]}`,
	`{"speeds":[{"cluster":-0,"value":-0}],"gateways":[{"cluster":0,"value":-0.0e0}]}`,
	`{"speeds":[{"cluster":3,"value":1}],"speeds":[{"value":2}]}`,
	`{"speeds":[{"cluster":3,"value":1}],"speeds":null,"gateways":[{"cluster":3,"value":1}],"gateways":[]}`,
	`{"speeds":[{"cluster":1,"value":1},{"cluster":2,"value":2},{"cluster":3,"value":3}],"speeds":[{"value":9}],"speeds":[{"value":7},null,{},{"cluster":5}]}`,
	`{"speeds":[{"cluster":1,"value":1,"extra":0}]}`,
	`{"queries":[{"relax":true,"nope":{}}]}`,
	`{"queries":[{"speeds":[{"cluster":0,"value":1}]},{"speeds":[{"cluster":0,"value":1}],"relax":true},{"bounds":[{"from":0,"to":1,"lb":0,"ub":1}]}],"workers":4}`,
	`{"queries":[{"gateways":[{"cluster":2,"value":5}]},null],"queries":[{},{"relax":true}],"WORKERS":null}`,
	`{"queries":[]}`,
	`{"queries":null,"workers":65}`,
	`{"speedFactor":[0.9,null,1.1],"gatewayFactor":[],"linkFactor":null}`,
	`{"speedFactor":[0.9],"speedFactor":[1,2]}`,
	`{"relax":true} ` + "\r\n\t",
	`{"relax":true} x`,
	`{"relax":true}{"relax":true}`,
	`{"relax":true}]`,
	`{"relax":tru}`,
	`{"relax":"true"}`,
	`{"relax":1}`,
	`{"speeds":{}}`,
	`{"speeds":[1]}`,
	`{"speeds":[{"cluster":"1","value":1}]}`,
	`{"speeds":[{"cluster":01,"value":1}]}`,
	`{"speeds":[{"cluster":1,"value":.5}]}`,
	`{"speeds":[{"cluster":1,"value":1.}]}`,
	`{"speeds":[{"cluster":1,"value":-}]}`,
	`{"speeds":[{"cluster":1,"value":1e}]}`,
	`{"speeds":[,]}`,
	`{"speeds":[{"cluster":1,"value":1},]}`,
	`{"relax":true,}`,
	`{,}`,
	`{"relax" true}`,
	"{\"re\tlax\":true}",
	`{}`,
	` null `,
	`nul`,
	`nullx`,
	`[]`,
	`42`,
	`""`,
	``,
	`{`,
	"\ufeff{}",
}

// FuzzRequestBodies is the per-op decoder — its walk, and encoding/json
// for a body the walk gives up on — against encoding/json's strict
// decode, its oracle: on every body and each of the three request types
// the two
// agree on accept or refuse and on the decoded value, and an accepted
// what-if keys to json.Marshal's bytes. The seeds run with plain go
// test.
func FuzzRequestBodies(f *testing.F) {
	for _, s := range requestBodySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkDecodeAgainstOracle(t, body)
	})
}

// TestCanonicalBodiesTakeTheFastPath: every body json.Marshal writes
// for a request value is taken by the walk, not left to encoding/json,
// and decodes to the value encoding/json decodes. The values are random
// what-ifs, batches and epochs plus the benchmark's mutation shapes,
// with floats json.Marshal writes with an exponent (1e-7, 1e+21), -0,
// ±MaxInt64 indices and empty arrays.
func TestCanonicalBodiesTakeTheFastPath(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	edgeFloats := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -2.5e-300, 0.1, 100, 1e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	edgeInts := []int{0, 1, 39, math.MaxInt64, -math.MaxInt64, math.MinInt64}
	float := func() float64 {
		switch rng.Intn(3) {
		case 0:
			return edgeFloats[rng.Intn(len(edgeFloats))]
		case 1:
			return (rng.Float64() - 0.5) * 400
		}
		// Any finite float64, from its bits.
		for {
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	integer := func() int {
		if rng.Intn(2) == 0 {
			return edgeInts[rng.Intn(len(edgeInts))]
		}
		return rng.Intn(200) - 100
	}
	values := func(n int) []ClusterValue {
		v := make([]ClusterValue, n)
		for i := range v {
			v[i] = ClusterValue{Cluster: integer(), Value: float()}
		}
		return v
	}
	whatIf := func() WhatIfRequest {
		q := WhatIfRequest{Relax: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			q.Speeds = values(1 + rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			q.Gateways = values(1 + rng.Intn(3))
		}
		if rng.Intn(2) == 0 {
			q.Links = []LinkValue{{Link: integer(), MaxConnect: float()}}
		}
		if rng.Intn(2) == 0 {
			q.Bounds = []RouteBounds{{From: integer(), To: integer(), Lb: float(), Ub: float()}, {From: integer(), To: integer(), Lb: 0, Ub: -1}}
		}
		return q
	}
	factors := func() []float64 {
		f := make([]float64, rng.Intn(6))
		for i := range f {
			f[i] = float()
		}
		return f
	}

	// The four shapes of the benchmark's what-ifs (bench/workloads.go
	// mutation), a 64-query batch of them, and an epoch as ring_adapt
	// sends it.
	speed := []ClusterValue{{Cluster: 3, Value: 87.5}}
	gateway := []ClusterValue{{Cluster: 3, Value: 1e-7}}
	pinned := []WhatIfRequest{
		{Speeds: speed, Relax: true},
		{Gateways: gateway, Relax: true},
		{Links: []LinkValue{{Link: 12, MaxConnect: 4}}, Speeds: speed, Relax: true},
		{Bounds: []RouteBounds{{From: 1, To: 7, Lb: 0, Ub: 3}}, Gateways: gateway, Relax: true},
	}
	var bodies []any
	for _, q := range pinned {
		bodies = append(bodies, q)
	}
	bodies = append(bodies,
		WhatIfRequest{},
		BatchWhatIfRequest{Queries: []WhatIfRequest{}},
		EpochRequest{},
		EpochRequest{SpeedFactor: []float64{0.9, 1.1, 1e21}, GatewayFactor: []float64{math.Copysign(0, -1), 1e-7}},
	)
	batch := BatchWhatIfRequest{Workers: 64}
	for i := 0; i < 64; i++ {
		batch.Queries = append(batch.Queries, pinned[i%4])
	}
	bodies = append(bodies, batch)
	for i := 0; i < 300; i++ {
		switch i % 3 {
		case 0:
			bodies = append(bodies, whatIf())
		case 1:
			b := BatchWhatIfRequest{Queries: make([]WhatIfRequest, rng.Intn(5)), Workers: integer()}
			for j := range b.Queries {
				b.Queries[j] = whatIf()
			}
			bodies = append(bodies, b)
		default:
			bodies = append(bodies, EpochRequest{GatewayFactor: factors(), SpeedFactor: factors(), LinkFactor: factors()})
		}
	}

	for _, v := range bodies {
		body, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		switch v.(type) {
		case WhatIfRequest:
			walkMatchesOracle(t, body, (*walk).whatIf)
		case BatchWhatIfRequest:
			walkMatchesOracle(t, body, (*walk).batch)
		case EpochRequest:
			walkMatchesOracle(t, body, (*walk).epoch)
		}
	}
}

// walkMatchesOracle: walkT takes body, and decodes the value
// encoding/json decodes.
func walkMatchesOracle[T any](t *testing.T, body []byte, walkT func(*walk, *T) bool) {
	t.Helper()
	var got, want T
	if err := oracleDecode(body, &want); err != nil {
		t.Fatalf("%s: encoding/json refuses it: %v", body, err)
	}
	if d := (walk{b: body}); !walkT(&d, &got) || !d.done() {
		t.Fatalf("%s: the walk gives up at byte %d", body, d.i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: the walk decodes %#v, encoding/json %#v", body, got, want)
	}
}

// TestDecoderNamesMatchTags is the drift guard of the decode side: the
// member names each decoder matches are the json tags of its type, in
// order, no two of them fold alike, and a what-if with every member set
// keys to json.Marshal's bytes. A field added to a request type without teaching decode.go
// fails here.
func TestDecoderNamesMatchTags(t *testing.T) {
	for _, c := range []struct {
		names []string
		typ   any
	}{
		{whatIfFields, WhatIfRequest{}},
		{batchFields, BatchWhatIfRequest{}},
		{epochFields, EpochRequest{}},
		{valueFields, ClusterValue{}},
		{linkFields, LinkValue{}},
		{boundsFields, RouteBounds{}},
	} {
		if want := jsonTags(reflect.TypeOf(c.typ)); !reflect.DeepEqual(c.names, want) {
			t.Errorf("%T: decoder names %v, json tags %v", c.typ, c.names, want)
		}
		// No two names fold alike, so a folded name, which the walk
		// leaves to encoding/json, names one field.
		for i, a := range c.names {
			for _, b := range c.names[i+1:] {
				if strings.EqualFold(a, b) {
					t.Errorf("%T: names %q and %q fold alike", c.typ, a, b)
				}
			}
		}
	}
	full := &WhatIfRequest{
		Speeds:   []ClusterValue{{Cluster: 1, Value: 0.5}},
		Gateways: []ClusterValue{{Cluster: 2, Value: 1e-7}},
		Links:    []LinkValue{{Link: 3, MaxConnect: 4}},
		Bounds:   []RouteBounds{{From: 1, To: 2, Lb: 1, Ub: -1}},
		Relax:    true,
	}
	want, err := json.Marshal(full)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := appendWhatIfKey(nil, full); !ok || string(got) != string(want) {
		t.Fatalf("key %s (ok %v), json.Marshal %s", got, ok, want)
	}
}

// TestNonFiniteQueryRefused: a what-if handed to the exported Session
// API as a Go value holding a NaN or ±Inf has no key, and is refused
// with a 400-class error before it claims a flight or solves — alone or
// in a batch — as json.Marshal's failure refused it.
func TestNonFiniteQueryRefused(t *testing.T) {
	sess, _, err := NewPool(1).GetOrCreate(&CreateSessionRequest{Platform: platformJSON(t, testPlatform(t, 4, 7))})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		q := WhatIfRequest{Gateways: []ClusterValue{{Cluster: 0, Value: v}}, Relax: true}
		if _, err := sess.WhatIf(&q); !errors.Is(err, errNonFiniteQuery) || solveStatus(err) != http.StatusBadRequest {
			t.Errorf("what-if with %v: error %v, want errNonFiniteQuery", v, err)
		}
		batch := &BatchWhatIfRequest{Queries: []WhatIfRequest{{Relax: true}, q}}
		if _, err := sess.WhatIfBatch(batch); !errors.Is(err, errNonFiniteQuery) || solveStatus(err) != http.StatusBadRequest {
			t.Errorf("batch with %v: error %v, want errNonFiniteQuery", v, err)
		}
	}
	if got := sess.Stats().WhatIfs; got != 0 {
		t.Fatalf("%d what-ifs counted for refused queries, want 0", got)
	}
}
