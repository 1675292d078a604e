package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
)

// The fast decoder of the per-op request bodies — WhatIfRequest,
// BatchWhatIfRequest and EpochRequest — and the one writer of a
// what-if's canonical key (DESIGN.md "Serving: a fast path for per-op
// bodies"). A body is read whole into a pooled buffer and walked once,
// in place. The walk takes the shape json.Marshal writes: objects whose
// members are spelt exactly as their tags, each at most once; arrays;
// true and false; numbers in JSON's grammar, parsed with
// strconv.ParseInt or strconv.ParseFloat; JSON whitespace, and nothing
// after the value. On anything else — null, a string, an escape, a
// folded, unknown or repeated name, a number strconv refuses, trailing
// bytes — it gives up, and encoding/json decodes the body (decodeJSON),
// so what is accepted, the value decoded and the error are
// encoding/json's by construction. None of the three types holds a
// string, so nothing decoded aliases the buffer.

// readBody reads r's body, bounded by maxBodyBytes, and decodes it with
// decode, answering 400 "decoding request: …" itself when either fails;
// the text after the prefix is readBounded's or encoding/json's.
func readBody(w http.ResponseWriter, r *http.Request, decode func([]byte) error) bool {
	bp := reportBufs.Get().(*[]byte)
	defer reportBufs.Put(bp)
	var err error
	if *bp, err = readBounded(*bp, r.Body, r.ContentLength); err == nil {
		err = decode(*bp)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return false
	}
	return true
}

// DecodeBatch reads one batch request from r as POST
// /sessions/{id}/whatif/batch decodes its body: the same bound, the
// same strictness, the same value.
func DecodeBatch(r io.Reader) (*BatchWhatIfRequest, error) {
	data, err := readBounded(nil, r, -1)
	if err != nil {
		return nil, err
	}
	req := new(BatchWhatIfRequest)
	if err := decodeBatch(data, req); err != nil {
		return nil, err
	}
	return req, nil
}

// decodeWhatIf, decodeBatch and decodeEpoch decode a body into a zero
// value: by the walk when it takes the body, by fallback when it gives
// up.
func decodeWhatIf(data []byte, q *WhatIfRequest) error {
	if d := (walk{b: data}); d.whatIf(q) && d.done() {
		return nil
	}
	return fallback(data, q)
}

func decodeBatch(data []byte, req *BatchWhatIfRequest) error {
	if d := (walk{b: data}); d.batch(req) && d.done() {
		return nil
	}
	return fallback(data, req)
}

func decodeEpoch(data []byte, req *EpochRequest) error {
	if d := (walk{b: data}); d.epoch(req) && d.done() {
		return nil
	}
	return fallback(data, req)
}

// fallback decodes data with decodeJSON into a value of its own and
// copies it over whatever the walk left in *dst. Handing dst itself to
// decodeJSON would make it an any and move every caller's request to the
// heap, on the fast path too.
func fallback[T any](data []byte, dst *T) error {
	var v T
	err := decodeJSON(data, &v)
	*dst = v
	return err
}

// walk is the fast path over one body. Every method reports whether it
// decoded what it was asked for; false means the walk gives up.
type walk struct {
	b []byte
	i int
}

// more skips whitespace and reports whether a byte follows.
func (d *walk) more() bool {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return true
		}
	}
	return false
}

// done reports whether only whitespace follows.
func (d *walk) done() bool { return !d.more() }

// at skips whitespace and reports whether c is next.
func (d *walk) at(c byte) bool { return d.more() && d.b[d.i] == c }

// literal consumes lit if it is next.
func (d *walk) literal(lit string) bool {
	if end := d.i + len(lit); end <= len(d.b) && string(d.b[d.i:end]) == lit {
		d.i = end
		return true
	}
	return false
}

// object walks an object whose members are spelt exactly as names and
// appear at most once each: member decodes the value of names[f].
func (d *walk) object(names []string, member func(f int) bool) bool {
	if !d.at('{') {
		return false
	}
	d.i++
	if d.at('}') {
		d.i++
		return true
	}
	var seen uint
	for {
		f, ok := d.name(names)
		if !ok || seen&(1<<f) != 0 || !member(f) || !d.more() {
			return false
		}
		seen |= 1 << f
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return true
		default:
			return false
		}
	}
}

// name reads a member name spelt exactly as one of names, and its
// colon, and returns the name's index.
func (d *walk) name(names []string) (int, bool) {
	if !d.at('"') {
		return 0, false
	}
	d.i++
	for f, n := range names {
		if end := d.i + len(n); end < len(d.b) && d.b[end] == '"' && string(d.b[d.i:end]) == n {
			d.i = end + 1
			if !d.at(':') {
				return 0, false
			}
			d.i++
			return f, true
		}
	}
	return 0, false
}

// number consumes the JSON number that is next and returns its bytes.
func (d *walk) number() ([]byte, bool) {
	if !d.more() {
		return nil, false
	}
	b, start := d.b, d.i
	i := start
	digits := func() int {
		n := i
		for i < len(b) && '0' <= b[i] && b[i] <= '9' {
			i++
		}
		return i - n
	}
	if b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		return nil, false
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits() == 0 {
			return nil, false
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			return nil, false
		}
	}
	d.i = i
	return b[start:i], true
}

func (d *walk) int(v *int) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	*v = int(n)
	return err == nil
}

func (d *walk) float(v *float64) bool {
	num, ok := d.number()
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	*v = f
	return err == nil
}

func (d *walk) bool(v *bool) bool {
	if !d.more() {
		return false
	}
	*v = d.b[d.i] == 't'
	if *v {
		return d.literal("true")
	}
	return d.literal("false")
}

// slice walks an array into *s, a new slice: [] gives an empty, non-nil
// one, as encoding/json does.
func slice[T any](d *walk, s *[]T, elem func(*walk, *T) bool) bool {
	if !d.at('[') {
		return false
	}
	d.i++
	v := []T{}
	if d.at(']') {
		d.i++
		*s = v
		return true
	}
	for {
		var zero T
		v = append(v, zero)
		if !elem(d, &v[len(v)-1]) || !d.more() {
			return false
		}
		d.i++
		switch d.b[d.i-1] {
		case ']':
			*s = v
			return true
		case ',':
		default:
			return false
		}
	}
}

var (
	whatIfFields = []string{"speeds", "gateways", "links", "bounds", "relax"}
	batchFields  = []string{"queries", "workers"}
	epochFields  = []string{"gatewayFactor", "speedFactor", "linkFactor"}
	valueFields  = []string{"cluster", "value"}
	linkFields   = []string{"link", "maxConnect"}
	boundsFields = []string{"from", "to", "lb", "ub"}
)

func (d *walk) whatIf(q *WhatIfRequest) bool {
	return d.object(whatIfFields, func(f int) bool {
		switch f {
		case 0:
			return slice(d, &q.Speeds, clusterValue)
		case 1:
			return slice(d, &q.Gateways, clusterValue)
		case 2:
			return slice(d, &q.Links, linkValue)
		case 3:
			return slice(d, &q.Bounds, routeBounds)
		}
		return d.bool(&q.Relax)
	})
}

func (d *walk) batch(req *BatchWhatIfRequest) bool {
	return d.object(batchFields, func(f int) bool {
		if f == 0 {
			return slice(d, &req.Queries, (*walk).whatIf)
		}
		return d.int(&req.Workers)
	})
}

func (d *walk) epoch(req *EpochRequest) bool {
	return d.object(epochFields, func(f int) bool {
		switch f {
		case 0:
			return slice(d, &req.GatewayFactor, (*walk).float)
		case 1:
			return slice(d, &req.SpeedFactor, (*walk).float)
		}
		return slice(d, &req.LinkFactor, (*walk).float)
	})
}

func clusterValue(d *walk, v *ClusterValue) bool {
	return d.object(valueFields, func(f int) bool {
		if f == 0 {
			return d.int(&v.Cluster)
		}
		return d.float(&v.Value)
	})
}

func linkValue(d *walk, v *LinkValue) bool {
	return d.object(linkFields, func(f int) bool {
		if f == 0 {
			return d.int(&v.Link)
		}
		return d.float(&v.MaxConnect)
	})
}

func routeBounds(d *walk, v *RouteBounds) bool {
	return d.object(boundsFields, func(f int) bool {
		switch f {
		case 0:
			return d.int(&v.From)
		case 1:
			return d.int(&v.To)
		case 2:
			return d.float(&v.Lb)
		}
		return d.float(&v.Ub)
	})
}

// errNonFiniteQuery refuses a what-if handed in as a Go value holding a
// NaN or ±Inf, which no JSON body can carry and no key can name.
var errNonFiniteQuery = clientError{errors.New("what-if: a NaN or ±Inf value, which JSON cannot carry")}

// appendWhatIfKey appends q's canonical key — the bytes json.Marshal
// renders q in — to b. ok is false, and the bytes garbage, when q holds
// a NaN or ±Inf, where json.Marshal fails.
func appendWhatIfKey(b []byte, q *WhatIfRequest) (_ []byte, ok bool) {
	e := encoder(append(b, '{'), true)
	if len(q.Speeds) > 0 {
		e.key(1, "speeds")
		array(e, 1, q.Speeds, clusterValueElem)
	}
	if len(q.Gateways) > 0 {
		e.key(1, "gateways")
		array(e, 1, q.Gateways, clusterValueElem)
	}
	if len(q.Links) > 0 {
		e.key(1, "links")
		array(e, 1, q.Links, linkValueElem)
	}
	if len(q.Bounds) > 0 {
		e.key(1, "bounds")
		array(e, 1, q.Bounds, routeBoundsElem)
	}
	if q.Relax {
		e.boolField(1, "relax", true)
	}
	e.b = append(e.b, '}')
	return e.done()
}

func clusterValueElem(e *wireEnc, d int, v ClusterValue) {
	e.b = append(e.b, '{')
	e.intField(d+1, "cluster", int64(v.Cluster))
	e.key(d+1, "value")
	floatElem(e, d+1, v.Value)
	e.b = append(e.b, '}')
}

func linkValueElem(e *wireEnc, d int, v LinkValue) {
	e.b = append(e.b, '{')
	e.intField(d+1, "link", int64(v.Link))
	e.key(d+1, "maxConnect")
	floatElem(e, d+1, v.MaxConnect)
	e.b = append(e.b, '}')
}

func routeBoundsElem(e *wireEnc, d int, v RouteBounds) {
	e.b = append(e.b, '{')
	e.intField(d+1, "from", int64(v.From))
	e.intField(d+1, "to", int64(v.To))
	e.key(d+1, "lb")
	floatElem(e, d+1, v.Lb)
	e.key(d+1, "ub")
	floatElem(e, d+1, v.Ub)
	e.b = append(e.b, '}')
}
