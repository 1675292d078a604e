package service

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
)

// oracleBytes is the encoder's reference: encoding/json's indenting
// Encoder, the code that wrote every SolveReport and batch body before
// the append encoder existed.
func oracleBytes(v any) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	err := enc.Encode(v)
	return buf.Bytes(), err
}

// checkAgainstOracle requires EncodeReport to write the oracle's
// bytes, or — for a report encoding/json rejects — to fail with
// errNonFinite and write nothing.
func checkAgainstOracle(t *testing.T, rep *SolveReport) {
	t.Helper()
	want, wantErr := oracleBytes(rep)
	var got bytes.Buffer
	err := EncodeReport(&got, rep)
	if wantErr != nil {
		if !errors.Is(err, errNonFinite) {
			t.Fatalf("oracle fails with %v, encoder with %v\nreport: %+v", wantErr, err, rep)
		}
		if got.Len() != 0 {
			t.Fatalf("encoder wrote %d bytes for a report it rejects", got.Len())
		}
		return
	}
	if err != nil {
		t.Fatalf("encoder fails with %v on a report the oracle encodes\nreport: %+v", err, rep)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("encoder differs from encoding/json\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// checkFormsAgainstOracle holds all three forms of the one encoder to
// encoding/json: the body (checkAgainstOracle), the compact form and the
// bytes a commit record keeps — the body stripped of its whitespace —
// against json.Marshal, and rep nested in a batch
// body — twice, around a nil report — against the oracle's bytes of the
// BatchWhatIfResponse. A report encoding/json rejects gets errNonFinite
// and no bytes in every form.
func checkFormsAgainstOracle(t *testing.T, rep *SolveReport) {
	t.Helper()
	checkAgainstOracle(t, rep)
	want, wantErr := json.Marshal(rep)
	got, ok := appendReport(nil, rep, 0, true)
	switch {
	case wantErr != nil && ok:
		t.Fatalf("json.Marshal fails with %v, the compact form accepts\nreport: %+v", wantErr, rep)
	case wantErr == nil && (!ok || !bytes.Equal(got, want)):
		t.Fatalf("compact form differs from json.Marshal (ok %v)\ngot:  %s\nwant: %s", ok, got, want)
	}
	if body, ok := reportBytes(rep); ok {
		// A commit record keeps its body with the whitespace stripped.
		if rec := compactReport(*body); wantErr != nil || !bytes.Equal(rec, want) {
			t.Fatalf("a commit record's bytes differ from json.Marshal (%v)\ngot:  %s\nwant: %s", wantErr, rec, want)
		}
		reportBufs.Put(body)
	}
	checkBatchAgainstOracle(t, &BatchWhatIfResponse{
		Reports: []*SolveReport{rep, nil, rep}, Distinct: 2, Workers: 1 + rep.Epoch%3, Epoch: rep.Epoch,
	})
}

// checkBatchAgainstOracle requires EncodeBatch to write the oracle's
// bytes for resp, or to fail with errNonFinite and write nothing.
func checkBatchAgainstOracle(t *testing.T, resp *BatchWhatIfResponse) {
	t.Helper()
	var got bytes.Buffer
	want, wantErr := oracleBytes(resp)
	err := EncodeBatch(&got, resp)
	if wantErr != nil {
		if !errors.Is(err, errNonFinite) || got.Len() != 0 {
			t.Fatalf("oracle fails with %v, batch encoder with %v after %d bytes", wantErr, err, got.Len())
		}
		return
	}
	if err != nil || !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("batch encoder differs from encoding/json (%v)\ngot:\n%s\nwant:\n%s", err, got.Bytes(), want)
	}
}

// marshalReport returns the bytes json.Marshal renders rep in, as the
// compact encoder writes them; nil when rep holds a non-finite float.
func marshalReport(rep *SolveReport) []byte {
	b, ok := appendReport(nil, rep, 0, true)
	if !ok {
		return nil
	}
	return b
}

// edgeFloats are the values whose text form has a rule of its own in
// encoding/json: signed zero, the 1e-6 and 1e21 format switches, the
// exponent clean-up, the extremes, and integers stored as floats.
var edgeFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 100, 0.1, 1.0 / 3, 5e-324, 1e-7, 1e-6, 0.99e-6, 999999e-12,
	1e-9, 1e-10, 1.5e-300, 1e20, 1e21, 0.99e21, 1.23456789e22, 1e100, math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, 123456789, 1 << 53, 4503599627370497.5, 250.00000000000003,
	math.Float64frombits(1<<52 - 1), -5e-324, // the largest denormal; a negative one
}

var edgeStrings = []string{
	"lprg", "maxmin", "", "a<b>&c", "q\"uo\\te", "héllo", "\x00\x1f\x7f", "bad\xffutf8", "line\u2028sep\u2029", "tab\there\n",
}

// reportSource feeds genReport: random words from a seeded RNG in the
// property test, the fuzzer's bytes in the fuzz target.
type reportSource interface{ word() uint64 }

type rngSource struct{ *rand.Rand }

func (s rngSource) word() uint64 { return s.Uint64() }

// byteSource reads its data eight bytes at a time, then zeros.
type byteSource struct{ data []byte }

func (s *byteSource) word() uint64 {
	var w [8]byte
	s.data = s.data[copy(w[:], s.data):]
	return binary.LittleEndian.Uint64(w[:])
}

func genFloat(src reportSource) float64 {
	w := src.word()
	switch w % 4 {
	case 0:
		return edgeFloats[(w>>2)%uint64(len(edgeFloats))]
	case 1:
		return math.Float64frombits(src.word()) // any bit pattern, NaN and ±Inf included
	case 2:
		return float64(int64(w>>2)%100000 - 50000)
	}
	return float64(int64(src.word())) / float64(uint64(1)<<(w>>2%64))
}

// genSlice draws nil, empty-but-non-nil, or 1–4 elements.
func genSlice[T any](src reportSource, elem func(reportSource) T) []T {
	switch n := src.word() % 6; n {
	case 0:
		return nil
	case 1:
		return []T{}
	default:
		out := make([]T, n-1)
		for i := range out {
			out[i] = elem(src)
		}
		return out
	}
}

func genString(src reportSource) string {
	w := src.word()
	if i := w % uint64(len(edgeStrings)+1); i < uint64(len(edgeStrings)) {
		return edgeStrings[i]
	}
	raw := make([]byte, 8)
	binary.LittleEndian.PutUint64(raw, src.word())
	return string(raw[:w>>8%9])
}

// genReport draws a report exercising every shape the encoder
// branches on: each omitempty field present and absent, nil / empty /
// ragged tables with nil and empty rows.
func genReport(src reportSource) *SolveReport {
	floats := func(src reportSource) []float64 { return genSlice(src, genFloat) }
	ints := func(src reportSource) []int {
		return genSlice(src, func(src reportSource) int { return int(int64(src.word())) >> (src.word() % 64) })
	}
	flags := src.word()
	rep := &SolveReport{
		Heuristic:   genString(src),
		Objective:   genString(src),
		Feasible:    flags&1 != 0,
		Value:       genFloat(src),
		LPBound:     genFloat(src),
		Throughputs: floats(src),
		Alpha:       genSlice(src, floats),
		Beta:        genSlice(src, ints),
		BetaFrac:    genSlice(src, floats),
		Relaxed:     flags&2 != 0,
		Epoch:       int(int64(src.word())) >> (flags >> 8 % 64),
		Coalesced:   flags&4 != 0,
		Cached:      flags&8 != 0,
	}
	return rep
}

// TestEncodeReportMatchesOracle is the encoder's differential test:
// 4000 seeded random reports, byte for byte against encoding/json.
func TestEncodeReportMatchesOracle(t *testing.T) {
	src := rngSource{rand.New(rand.NewSource(14))}
	rejected := 0
	for i := 0; i < 4000; i++ {
		rep := genReport(src)
		if _, err := oracleBytes(rep); err != nil {
			rejected++
		}
		checkFormsAgainstOracle(t, rep)
	}
	if rejected == 0 || rejected > 2000 {
		t.Fatalf("%d of 4000 reports held a non-finite float; the generator should draw some, not mostly", rejected)
	}
	// Every edge value alone and in a table, whatever the draw above hit.
	for _, f := range edgeFloats {
		checkFormsAgainstOracle(t, &SolveReport{Value: f, LPBound: -f, Alpha: [][]float64{{f}, nil, {}}})
	}
	for _, s := range edgeStrings {
		checkFormsAgainstOracle(t, &SolveReport{Heuristic: s, Objective: s + s})
	}
	checkFormsAgainstOracle(t, &SolveReport{})
	for _, reports := range [][]*SolveReport{nil, {}, {nil}} {
		checkBatchAgainstOracle(t, &BatchWhatIfResponse{Reports: reports})
	}
}

// FuzzEncodeSolveReport holds the one report encoder's three forms — a
// body, a report nested in a batch body, and a commit record's compact
// bytes (the body with its whitespace stripped) — to encoding/json on
// report shapes beyond the seeded draw (checkFormsAgainstOracle): where
// encoding/json fails, the encoder fails too and writes nothing. The
// committed corpus under testdata/fuzz runs with plain go test.
func FuzzEncodeSolveReport(f *testing.F) {
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	// Value +0, LPBound -0, then a throughputs row of +0, -0, the smallest
	// and the largest denormal: the zero cell floatElem writes itself and
	// its nearest neighbours. Words as genReport draws them; a float is
	// the pair 1, bits (genFloat's any-bit-pattern arm).
	const negZero = 1 << 63
	var seed []byte
	for _, w := range []uint64{
		0, 0, 0, // flags, heuristic, objective
		1, 0, 1, negZero, // value, lpBound
		5, 1, 0, 1, negZero, 1, 1, 1, 1<<52 - 1, // a four-element row
	} {
		seed = binary.LittleEndian.AppendUint64(seed, w)
	}
	f.Add(seed)
	// The same words name edge floats by index (genFloat's first arm),
	// slices by length class (0 nil, 1 empty, n n−1 elements), and flags:
	// 1 feasible, 2 relaxed, 4 coalesced, 8 cached.
	edge := func(f float64) uint64 {
		for i, e := range edgeFloats {
			if math.Float64bits(e) == math.Float64bits(f) {
				return uint64(i) << 2
			}
		}
		panic(f)
	}
	for _, words := range [][]uint64{
		// −0 and the exponent-form boundaries on each side, a nil alpha,
		// an empty beta and a betaFrac of one empty row, under the three
		// batch-visible flags.
		{2 | 4 | 8, 0, 1, edge(math.Copysign(0, -1)), edge(1e-7),
			4, edge(1e-6), edge(0.99e-6), edge(1e21),
			0, 1, 2, 1},
		// An empty alpha, a nil beta, a betaFrac of a nil row and a row of
		// 1e20 | 0.99e21 | 999999e-12, relaxed and cached only.
		{1 | 2 | 8, 1, 0, edge(1e20), edge(0.99e21),
			1, 1, 0, 3, 0, 4, edge(1e20), edge(0.99e21), edge(999999e-12)},
		// Feasible and coalesced only, tables absent.
		{1 | 4, 2, 2, edge(0), edge(1e-7), 0, 0, 0, 0},
	} {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint64(b, w)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkFormsAgainstOracle(t, genReport(&byteSource{data}))
	})
}

// TestEncodeReportNonFinite pins what a NaN or ±Inf does: the caller
// gets errNonFinite and no bytes, and the HTTP path — a solved answer
// and a cache hit alike — answers 500 with an ErrorResponse, never a
// 2xx with an empty body; also for a relaxed answer told as a diff.
func TestEncodeReportNonFinite(t *testing.T) {
	for _, rep := range []*SolveReport{
		{Value: math.NaN()},
		{LPBound: math.Inf(1)},
		{Throughputs: []float64{1, math.Inf(-1)}},
		{Alpha: [][]float64{{1}, {2, math.NaN()}}},
		{BetaFrac: [][]float64{{math.Inf(1)}}},
		nonFiniteDiff(t),
	} {
		var buf bytes.Buffer
		if err := EncodeReport(&buf, rep); !errors.Is(err, errNonFinite) || buf.Len() != 0 {
			t.Fatalf("EncodeReport(%+v) = %v with %d bytes, want errNonFinite and none", rep, err, buf.Len())
		}
		batch := &BatchWhatIfResponse{Reports: []*SolveReport{rep}}
		if err := EncodeBatch(&buf, batch); !errors.Is(err, errNonFinite) || buf.Len() != 0 {
			t.Fatalf("EncodeBatch = %v with %d bytes, want errNonFinite and none", err, buf.Len())
		}
		for _, hit := range []*answer{nil, {rep: *rep}} {
			rec := httptest.NewRecorder()
			writeAnswer(rec, rep, hit, nil)
			var body ErrorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusInternalServerError || err != nil || body.Error == "" {
				t.Fatalf("non-finite report over HTTP: status %d, body %q", rec.Code, rec.Body.Bytes())
			}
		}
	}
}

// nonFiniteDiff is a relaxed what-if's report told as a diff, with a
// NaN in place of its first moved cell's value.
func nonFiniteDiff(t *testing.T) *SolveReport {
	t.Helper()
	s, ops := pinnedWhatIfMix(t, 10, 40)
	for _, q := range ops {
		rep, _, err := s.whatIf(&q)
		if err != nil {
			t.Fatal(err)
		}
		if rep.diff != nil && len(rep.diff.Cells) > 0 {
			d := *rep.diff
			d.Values = append([]float64{math.NaN()}, d.Values[1:]...)
			bad := *rep
			bad.diff = &d
			return &bad
		}
	}
	t.Fatal("no relaxed what-if in the pinned mix moved a cell")
	return nil
}

// jsonTags lists a struct's JSON member names in declaration order; an
// unexported field is none.
func jsonTags(t reflect.Type) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		if !t.Field(i).IsExported() {
			continue
		}
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		out = append(out, name)
	}
	return out
}

// objectKeys lists the member names of the JSON object b holds, in
// order.
func objectKeys(t *testing.T, b []byte) []string {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("want an object, got %v (%v)", tok, err)
	}
	var keys []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// TestEncoderKeysMatchTags is the drift guard: the member names the
// encoder writes for a fully populated report, in order, must be the
// json tags of SolveReport. A field added to it without teaching
// appendReport fails here.
func TestEncoderKeysMatchTags(t *testing.T) {
	full := &SolveReport{
		Heuristic: "h", Objective: "o", Feasible: true, Value: 1, LPBound: 1,
		Throughputs: []float64{1}, Alpha: [][]float64{{1}}, Beta: [][]int{{1}}, BetaFrac: [][]float64{{1}},
		Relaxed: true, Epoch: 1, Coalesced: true, Cached: true,
	}
	b, ok := appendReport(nil, full, 0, false)
	if !ok {
		t.Fatal("appendReport rejected a finite report")
	}
	if got, want := objectKeys(t, b), jsonTags(reflect.TypeOf(SolveReport{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("encoder keys drifted from the struct tags\nencoder: %v\ntags:    %v", got, want)
	}
	b, ok = appendBatch(nil, &BatchWhatIfResponse{Reports: []*SolveReport{full}})
	if !ok {
		t.Fatal("appendBatch rejected a finite batch")
	}
	if got, want := objectKeys(t, b), jsonTags(reflect.TypeOf(BatchWhatIfResponse{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("batch encoder keys drifted from the struct tags\nencoder: %v\ntags:    %v", got, want)
	}
}

// TestBatchEncodeAllocatesNothing is the clock-free guard on the batch
// body: a 64-report /whatif/batch body — lean reports as WhatIfBatch
// returns them, coalesced twins included — encodes into a warmed pooled
// buffer with 0 allocations. encoding/json reflected over it and then
// re-walked its output into a fresh indent buffer.
func TestBatchEncodeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is put back")
	}
	resp := &BatchWhatIfResponse{Distinct: 48, Workers: 4, Epoch: 3}
	for i := 0; i < 64; i++ {
		rep := &SolveReport{Heuristic: "lprg", Objective: "maxmin", Relaxed: true, Epoch: 3,
			Feasible: i%7 != 0, Coalesced: i >= 48}
		if rep.Feasible {
			rep.Value = 1000 / float64(i+3)
			rep.LPBound = rep.Value
		}
		resp.Reports = append(resp.Reports, rep)
	}
	checkBatchAgainstOracle(t, resp)
	allocs := testing.AllocsPerRun(100, func() {
		bp, ok := batchBytes(resp)
		if !ok {
			t.Fatal("batchBytes rejected a finite batch")
		}
		reportBufs.Put(bp)
	})
	t.Logf("64-report batch body: %.0f allocs", allocs)
	if allocs != 0 {
		t.Fatalf("encoding a 64-report batch body into a warmed buffer allocates %.0f times, want 0", allocs)
	}
}
