package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/core"
)

// The one encoder of SolveReport bytes: a single-pass append encoder
// emitting exactly what encoding/json writes, in three forms — a query,
// what-if or epoch body (json.Encoder's two-space indent mode plus its
// trailing newline), a /whatif/batch body, whose reports sit nested two
// levels deep in the same indent mode, and the compact bytes
// json.Marshal renders a commit record in. It is the only encoder of
// those bodies: a report it cannot write — a NaN or ±Inf, which JSON
// has no form for — is an error (errNonFinite; a 500 over HTTP), never
// a second encoder's attempt. The format is a frozen contract: the
// members of SolveReport, whose values depend only on the committed
// state and the question — no solver counters, so a re-solve, a cache
// hit (bar its "cached" member) and a restored replica write the same
// bytes. encoding/json stays the encoder of every other type and this
// one's oracle in tests.

// errNonFinite is the encoder's one failure.
var errNonFinite = errors.New("service: the report holds a NaN or ±Inf, which JSON cannot carry")

// reportBufs pools the wire path's byte buffers — the encode buffers,
// and the request bodies and what-if keys of the decode side (decode.go):
// no allocation per body.
var reportBufs = sync.Pool{New: func() any { return new([]byte) }}

// EncodeReport writes rep as the service writes it on the wire:
// two-space indented JSON plus a trailing newline, in one Write. A
// report holding a NaN or ±Inf has no JSON form: nothing is written,
// and the error is errNonFinite.
func EncodeReport(w io.Writer, rep *SolveReport) error {
	bp, ok := reportBytes(rep)
	defer reportBufs.Put(bp)
	return emit(w, *bp, ok)
}

// EncodeBatch is EncodeReport for a batch: it writes resp as POST
// /sessions/{id}/whatif/batch answers it.
func EncodeBatch(w io.Writer, resp *BatchWhatIfResponse) error {
	bp, ok := batchBytes(resp)
	defer reportBufs.Put(bp)
	return emit(w, *bp, ok)
}

// emit writes an encoded body, or fails when the encoder did (ok false).
func emit(w io.Writer, body []byte, ok bool) error {
	if !ok {
		return errNonFinite
	}
	_, err := w.Write(body)
	return err
}

// reportBytes encodes rep into a pooled buffer, which the caller puts
// back into reportBufs once done with the bytes; ok is false, and the
// bytes garbage, when rep holds a non-finite float.
func reportBytes(rep *SolveReport) (bp *[]byte, ok bool) {
	bp = reportBufs.Get().(*[]byte)
	*bp, ok = appendReport((*bp)[:0], rep, 0, false)
	return bp, ok
}

// batchBytes is reportBytes for a batch body.
func batchBytes(resp *BatchWhatIfResponse) (bp *[]byte, ok bool) {
	bp = reportBufs.Get().(*[]byte)
	*bp, ok = appendBatch((*bp)[:0], resp)
	return bp, ok
}

// compactReport returns body — a report as appendReport writes it,
// indented — in the compact form json.Marshal renders the report in, as
// a slice of its own, exactly sized: what a commit record keeps.
func compactReport(body []byte) []byte {
	bp := reportBufs.Get().(*[]byte)
	defer reportBufs.Put(bp)
	*bp = appendCompact((*bp)[:0], body)
	return bytes.Clone(*bp)
}

// appendCompact appends src, JSON as the encoder writes it indented,
// with the whitespace between its tokens removed, which leaves the
// compact form of the same value: the encoder's two forms differ in
// that whitespace alone. A string is copied through its closing quote
// (an escaped quote does not close it), so its own bytes are kept.
func appendCompact(dst, src []byte) []byte {
	at := len(dst)
	dst = slices.Grow(dst, len(src))
	out := dst[at : at+len(src)]
	n := 0
	for i := 0; i < len(src); i++ {
		switch c := src[i]; c {
		case ' ', '\n':
		case '"':
			j := i + 1
			for ; src[j] != '"'; j++ {
				if src[j] == '\\' {
					j++
				}
			}
			n += copy(out[n:], src[i:j+1])
			i = j
		default:
			out[n] = c
			n++
		}
	}
	return dst[:at+n]
}

// wireEnc appends JSON to b: indented, or compact as json.Marshal
// writes it.
type wireEnc struct {
	b       []byte
	compact bool
	bad     bool // met a NaN or ±Inf
}

// nl starts a line at depth; the compact form has none. The deepest
// line written is a table cell of a report nested in a batch body, at
// depth 5.
func (e *wireEnc) nl(depth int) {
	if !e.compact {
		e.b = append(e.b, "\n                "[:1+2*depth]...)
	}
}

// key starts a member of the open object, whose members sit at depth.
func (e *wireEnc) key(depth int, name string) {
	if e.b[len(e.b)-1] != '{' {
		e.b = append(e.b, ',')
	}
	e.nl(depth)
	e.b = append(e.b, '"')
	e.b = append(e.b, name...)
	if e.compact {
		e.b = append(e.b, `":`...)
	} else {
		e.b = append(e.b, `": `...)
	}
}

func (e *wireEnc) close(depth int) {
	e.nl(depth)
	e.b = append(e.b, '}')
}

func (e *wireEnc) str(s string) {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // escaping is encoding/json's business; a string cannot fail
			e.b = append(e.b, q...)
			return
		}
	}
	e.b = append(e.b, '"')
	e.b = append(e.b, s...)
	e.b = append(e.b, '"')
}

func (e *wireEnc) intField(depth int, name string, v int64) {
	e.key(depth, name)
	e.b = strconv.AppendInt(e.b, v, 10)
}

func (e *wireEnc) boolField(depth int, name string, v bool) {
	e.key(depth, name)
	e.b = strconv.AppendBool(e.b, v)
}

// floatElem follows encoding/json's float64 rules: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21, and a
// two-digit exponent's leading zero dropped (e-09 → e-9). Most cells of
// a relaxed answer's K×K tables are exactly +0, which is written without
// a trip through strconv; -0 is "-0" there as it is here.
func floatElem(e *wireEnc, _ int, f float64) {
	if f == 0 && !math.Signbit(f) {
		e.b = append(e.b, '0')
		return
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		e.bad = true
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.b = strconv.AppendFloat(e.b, f, format, -1, 64)
	if n := len(e.b); format == 'e' && n >= 4 && e.b[n-4] == 'e' && e.b[n-2] == '0' {
		e.b[n-2] = e.b[n-1]
		e.b = e.b[:n-1]
	}
}

func intElem(e *wireEnc, _ int, v int)              { e.b = strconv.AppendInt(e.b, int64(v), 10) }
func floatRow(e *wireEnc, depth int, row []float64) { array(e, depth, row, floatElem) }
func intRow(e *wireEnc, depth int, row []int)       { array(e, depth, row, intElem) }

// array appends v, whose brackets sit at depth, one element per line.
func array[T any](e *wireEnc, depth int, v []T, elem func(*wireEnc, int, T)) {
	switch {
	case v == nil:
		e.b = append(e.b, "null"...)
		return
	case len(v) == 0:
		e.b = append(e.b, "[]"...)
		return
	}
	e.b = append(e.b, '[')
	for i, x := range v {
		if i > 0 {
			e.b = append(e.b, ',')
		}
		e.nl(depth + 1)
		elem(e, depth+1, x)
	}
	e.nl(depth)
	e.b = append(e.b, ']')
}

// appendReport appends rep's JSON to b, its braces at depth: indented
// at depth 0, a whole body with its trailing newline; compact,
// json.Marshal's bytes. ok is false, and the bytes garbage, when rep
// holds a non-finite float.
func appendReport(b []byte, rep *SolveReport, depth int, compact bool) (_ []byte, ok bool) {
	e := encoder(b, compact)
	report(e, depth, rep)
	if depth == 0 && !compact {
		e.b = append(e.b, '\n')
	}
	return e.done()
}

// appendBatch appends resp as a whole body, exactly as an indenting
// json.Encoder writes it; ok as appendReport's.
func appendBatch(b []byte, resp *BatchWhatIfResponse) (_ []byte, ok bool) {
	e := encoder(append(b, '{'), false)
	e.key(1, "reports")
	array(e, 1, resp.Reports, report)
	e.intField(1, "distinct", int64(resp.Distinct))
	e.intField(1, "workers", int64(resp.Workers))
	e.intField(1, "epoch", int64(resp.Epoch))
	e.close(0)
	e.b = append(e.b, '\n')
	return e.done()
}

// encoders pools the encoder state. The element writers take it through
// function values, which escape analysis cannot see into, so an encoder
// on the stack would move to the heap: one allocation per body.
var encoders = sync.Pool{New: func() any { return new(wireEnc) }}

// encoder takes a pooled encoder appending to b.
func encoder(b []byte, compact bool) *wireEnc {
	e := encoders.Get().(*wireEnc)
	*e = wireEnc{b: b, compact: compact}
	return e
}

// done returns what e wrote and whether it was all finite, and puts e
// back.
func (e *wireEnc) done() ([]byte, bool) {
	b, ok := e.b, !e.bad
	*e = wireEnc{}
	encoders.Put(e)
	return b, ok
}

// report appends rep, whose braces sit at depth. Members follow the
// json tags of SolveReport (a test holds it). A body told as a diff has
// its tables spliced from the frozen answer's bytes, which hold them as
// a top-level indented body does; any other form writes them out whole
// (no report the service files is written in another form).
func report(e *wireEnc, depth int, rep *SolveReport) {
	if rep == nil {
		e.b = append(e.b, "null"...)
		return
	}
	if rep.diff != nil && (depth != 0 || e.compact) {
		rep = rep.dense()
	}
	d := depth + 1
	e.b = append(e.b, '{')
	e.key(d, "heuristic")
	e.str(rep.Heuristic)
	e.key(d, "objective")
	e.str(rep.Objective)
	e.boolField(d, "feasible", rep.Feasible)
	e.key(d, "value")
	floatElem(e, d, rep.Value)
	e.key(d, "lpBound")
	floatElem(e, d, rep.LPBound)
	t := rep.diff
	if len(rep.Throughputs) > 0 {
		e.key(d, "throughputs")
		if t != nil {
			t.spliceThroughputs(e, rep.Throughputs)
		} else {
			floatRow(e, d, rep.Throughputs)
		}
	}
	if t != nil {
		t.splice(e)
	} else {
		if len(rep.Alpha) > 0 {
			e.key(d, "alpha")
			array(e, d, rep.Alpha, floatRow)
		}
		if len(rep.Beta) > 0 {
			e.key(d, "beta")
			array(e, d, rep.Beta, intRow)
		}
		if len(rep.BetaFrac) > 0 {
			e.key(d, "betaFrac")
			array(e, d, rep.BetaFrac, floatRow)
		}
	}
	if rep.Relaxed {
		e.boolField(d, "relaxed", true)
	}
	e.intField(d, "epoch", int64(rep.Epoch))
	if rep.Coalesced {
		e.boolField(d, "coalesced", true)
	}
	if rep.Cached {
		e.boolField(d, "cached", true)
	}
	e.close(depth)
}

// tableBody is a frozen relaxed answer's throughputs array, as
// appendReport writes it after its key, then its "alpha" and "betaFrac"
// members as appendReport writes them after the throughputs, from split
// on; the start and end offset there of every throughput and then of
// every cell, numbered as core.Diff numbers them; and the throughputs.
type tableBody struct {
	sol   *core.RelaxedSolution
	b     []byte
	split int32
	at    []int32
	thr   []float64
}

func newTableBody(sol *core.RelaxedSolution) *tableBody {
	t := &tableBody{sol: sol, thr: throughputs(sol.Alpha)}
	t.at = make([]int32, 0, 2*len(t.thr)+4*len(sol.Alpha)*len(sol.Alpha))
	cell := func(e *wireEnc, _ int, f float64) {
		t.at = append(t.at, int32(len(e.b)-1)) // less the byte before the array
		floatElem(e, 0, f)
		t.at = append(t.at, int32(len(e.b)-1))
	}
	row := func(e *wireEnc, depth int, r []float64) { array(e, depth, r, cell) }
	e := wireEnc{b: []byte{' '}}
	array(&e, 1, t.thr, cell)
	t.split = int32(len(e.b) - 1)
	e.key(1, "alpha")
	array(&e, 1, sol.Alpha, row)
	e.key(1, "betaFrac")
	array(&e, 1, sol.Beta, row)
	t.b = e.b[1:]
	return t
}

// tableDiff is a relaxed answer's tables told as the frozen answer's,
// whose encoded members body holds, plus the Diff: its Cells and Values
// the report's own, its Base body's solution.
type tableDiff struct {
	body *tableBody
	core.Diff
}

// splice writes the tables: the body's bytes, but at the moved cells.
func (t *tableDiff) splice(e *wireEnc) {
	b, at, from := t.body.b, t.body.at[2*len(t.body.thr):], t.body.split
	for i, c := range t.Cells {
		e.b = append(e.b, b[from:at[2*c]]...)
		floatElem(e, 0, t.Values[i])
		from = at[2*c+1]
	}
	e.b = append(e.b, b[from:]...)
}

// spliceThroughputs writes thr, the answer's throughputs: the body's
// bytes, but at the α rows that hold a moved cell, the only ones
// throughputs sums anew.
func (t *tableDiff) spliceThroughputs(e *wireEnc, thr []float64) {
	b, at := t.body.b, t.body.at
	K, from, last := int32(len(t.Base.Beta)), int32(0), int32(-1)
	for _, c := range t.Cells {
		a := c / K
		if a >= int32(len(thr)) {
			break
		}
		if a != last {
			e.b = append(e.b, b[from:at[2*a]]...)
			floatElem(e, 0, thr[a])
			from, last = at[2*a+1], a
		}
	}
	e.b = append(e.b, b[from:t.body.split]...)
}

// throughputs is the answer's throughputs: the frozen answer's, with the
// α rows that hold a moved cell summed anew as throughputs sums them.
func (t *tableDiff) throughputs() []float64 {
	out := slices.Clone(t.body.thr)
	alpha := t.Base.Alpha
	K := int32(len(t.Base.Beta))
	for i := 0; i < len(t.Cells) && t.Cells[i] < int32(len(alpha))*K; {
		a, sum := t.Cells[i]/K, 0.0
		for l, v := range alpha[a] {
			if i < len(t.Cells) && t.Cells[i] == a*K+int32(l) {
				v = t.Values[i]
				i++
			}
			sum += v
		}
		out[a] = sum
	}
	return out
}

// dense returns rep with its tables whole: rep itself, or — told as a
// diff — a copy with the diff written out into tables of its own, so
// the report filed for other readers is never written.
func (rep *SolveReport) dense() *SolveReport {
	if rep == nil || rep.diff == nil {
		return rep
	}
	cp := *rep
	sol := rep.diff.Dense()
	cp.Alpha, cp.BetaFrac, cp.diff = sol.Alpha, sol.Beta, nil
	return &cp
}
