package service

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"
)

// The one decoder of the per-op request bodies — WhatIfRequest,
// BatchWhatIfRequest and EpochRequest — and the one writer of a
// what-if's canonical key (DESIGN.md "Serving: one decoder for per-op
// bodies"). A body is read whole into a pooled buffer and decoded in one
// pass, in place; none of the three types holds a string, so nothing
// decoded aliases the buffer. What it accepts, and the value it decodes,
// is exactly what encoding/json's Decoder with DisallowUnknownFields
// plus the check that nothing but whitespace follows the value accepts
// and decodes: member names match after unescaping, exactly or under
// simple case folding; null leaves a number, a bool or a struct as it
// is and sets a slice to nil; an array decodes into the slice's elements
// in place; integers parse with strconv.ParseInt and floats with
// strconv.ParseFloat. encoding/json stays the decoder of every other
// body and this one's oracle in tests.

// readBody reads r's body, bounded by maxBodyBytes, and decodes it with
// decode, answering 400 "decoding request: …" itself when either fails.
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

func decodeWhatIf(data []byte, q *WhatIfRequest) error {
	d := bodyDecoder{b: data}
	return d.top(d.whatIf(q))
}

func decodeBatch(data []byte, req *BatchWhatIfRequest) error {
	d := bodyDecoder{b: data}
	return d.top(d.batch(req))
}

func decodeEpoch(data []byte, req *EpochRequest) error {
	d := bodyDecoder{b: data}
	return d.top(d.epoch(req))
}

// bodyDecoder walks one body. Every method reports whether it decoded
// what it was asked for; the first failure is kept in err and ends the
// walk.
type bodyDecoder struct {
	b   []byte
	i   int
	err error
}

// top ends a walk whose value decoded (ok): only whitespace may follow.
func (d *bodyDecoder) top(ok bool) error {
	if ok && d.more() {
		d.syntax("after top-level value")
	}
	return d.err
}

func (d *bodyDecoder) fail(err error) bool {
	if d.err == nil {
		d.err = err
	}
	return false
}

// syntax fails on the byte at d.i (or the end) found where context
// allows none.
func (d *bodyDecoder) syntax(context string) bool {
	if !d.more() {
		return d.fail(errors.New("unexpected end of JSON input"))
	}
	return d.fail(fmt.Errorf("invalid character %q %s", d.b[d.i], context))
}

// mismatch fails on a well-formed value that is not what the member
// holds.
func (d *bodyDecoder) mismatch(want string) bool {
	return d.fail(fmt.Errorf("cannot decode %s into %s", d.kind(), want))
}

// kind names the JSON value that starts at d.i.
func (d *bodyDecoder) kind() string {
	switch d.b[d.i] {
	case '{':
		return "an object"
	case '[':
		return "an array"
	case '"':
		return "a string"
	case 't', 'f':
		return "a bool"
	}
	return "a number"
}

// more skips whitespace and reports whether a byte follows.
func (d *bodyDecoder) more() bool {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c > ' ' || c != ' ' && c != '\t' && c != '\n' && c != '\r' {
			return true
		}
	}
	return false
}

// at skips whitespace and reports whether c is next.
func (d *bodyDecoder) at(c byte) bool { return d.more() && d.b[d.i] == c }

// literal consumes lit, whose first byte is at d.i.
func (d *bodyDecoder) literal(lit string) bool {
	for j := 1; j < len(lit); j++ {
		if d.i+j == len(d.b) || d.b[d.i+j] != lit[j] {
			d.i += j
			return d.syntax("in literal " + lit)
		}
	}
	d.i += len(lit)
	return true
}

// start skips to the next value, checks that a value starts there and
// returns its first byte. A null is consumed and reported as 'n': the
// member's value stays as it is (a slice's caller sets it to nil). 0
// means the walk has failed, here or before, so a type error is never
// reported on malformed input.
func (d *bodyDecoder) start() byte {
	switch {
	case d.err != nil:
		return 0
	case !d.more():
		d.syntax("")
		return 0
	}
	switch c := d.b[d.i]; {
	case c == 'n':
		if !d.literal("null") {
			return 0
		}
		return 'n'
	case c == '{' || c == '[' || c == '"' || c == 't' || c == 'f' || c == '-' || '0' <= c && c <= '9':
		return c
	}
	d.syntax("looking for beginning of value")
	return 0
}

// object decodes an object member by member: member decodes the value
// of the field names[f] names. A name matching no field fails, as
// DisallowUnknownFields does. null leaves the destination as it is.
func (d *bodyDecoder) object(what string, names []string, member func(f int) bool) bool {
	switch d.start() {
	case 0:
		return false
	case 'n':
		return true
	case '{':
	default:
		return d.mismatch(what)
	}
	d.i++
	if d.at('}') {
		d.i++
		return true
	}
	for {
		f, ok := d.name(names)
		if !ok || !member(f) {
			return false
		}
		if !d.more() {
			return d.syntax("")
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return true
		default:
			return d.syntax("after object key:value pair")
		}
	}
}

// name reads a member name and its colon and returns the index of the
// field it names in names: the one equal to the unescaped name exactly
// or under simple case folding (encoding/json's foldName). No two names
// of a type fold alike, so at most one matches.
func (d *bodyDecoder) name(names []string) (int, bool) {
	if !d.at('"') {
		return 0, d.syntax("looking for beginning of object key string")
	}
	d.i++
	// Most names are spelt as declared: match those in place.
	for f, n := range names {
		if end := d.i + len(n); end < len(d.b) && d.b[end] == '"' && string(d.b[d.i:end]) == n {
			d.i = end + 1
			return f, d.colon()
		}
	}
	start, escaped := d.i, false
	for {
		if d.i >= len(d.b) {
			return 0, d.syntax("")
		}
		c := d.b[d.i]
		if c == '"' {
			break
		}
		switch {
		case c == '\\':
			escaped = true
			if !d.escape() {
				return 0, false
			}
		case c < 0x20:
			return 0, d.syntax("in string literal")
		default:
			d.i++
		}
	}
	key := d.b[start:d.i]
	d.i++
	if !d.colon() {
		return 0, false
	}
	if escaped {
		var buf [32]byte
		key = unquote(buf[:0], key)
	}
	for f, n := range names {
		if strings.EqualFold(string(key), n) {
			return f, true
		}
	}
	return 0, d.fail(fmt.Errorf("unknown field %q", string(key)))
}

// colon consumes the colon after a member name.
func (d *bodyDecoder) colon() bool {
	if !d.at(':') {
		return d.syntax("after object key")
	}
	d.i++
	return true
}

// escape consumes the escape sequence at d.i.
func (d *bodyDecoder) escape() bool {
	d.i++
	if d.i >= len(d.b) {
		return d.syntax("")
	}
	switch d.b[d.i] {
	case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
		d.i++
		return true
	case 'u':
		d.i++
		for j := 0; j < 4; j++ {
			if d.i >= len(d.b) {
				return d.syntax("")
			}
			if _, ok := hexDigit(d.b[d.i]); !ok {
				return d.syntax("in \\u hexadecimal character escape")
			}
			d.i++
		}
		return true
	}
	return d.syntax("in string escape code")
}

func hexDigit(c byte) (rune, bool) {
	switch {
	case '0' <= c && c <= '9':
		return rune(c - '0'), true
	case 'a' <= c && c <= 'f':
		return rune(c - 'a' + 10), true
	case 'A' <= c && c <= 'F':
		return rune(c - 'A' + 10), true
	}
	return 0, false
}

// u4 reads the four hex digits of a \u escape at s, or -1.
func u4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range s[2:6] {
		h, ok := hexDigit(c)
		if !ok {
			return -1
		}
		r = r<<4 | h
	}
	return r
}

// unquote appends the unescaped form of a well-formed string's contents
// to b as encoding/json unquotes it: a surrogate pair is one rune, and a
// lone surrogate or an invalid UTF-8 byte is U+FFFD.
func unquote(b, s []byte) []byte {
	for i := 0; i < len(s); {
		switch c := s[i]; {
		case c == '\\':
			switch s[i+1] {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				r := u4(s[i:])
				i += 6
				if utf16.IsSurrogate(r) {
					if dec := utf16.DecodeRune(r, u4(s[i:])); dec != utf8.RuneError {
						r = dec
						i += 6
					} else {
						r = utf8.RuneError
					}
				}
				b = utf8.AppendRune(b, r)
				continue
			default: // " \ /
				b = append(b, s[i+1])
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			r, n := utf8.DecodeRune(s[i:])
			b = utf8.AppendRune(b, r)
			i += n
		}
	}
	return b
}

// number consumes the JSON number that starts at d.i and returns its
// bytes; ok is false on anything else.
func (d *bodyDecoder) number(what string) ([]byte, bool) {
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
	} else if b[i] < '0' || b[i] > '9' {
		return nil, d.mismatch(what)
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case digits() == 0:
		d.i = i
		return nil, d.syntax("in numeric literal")
	}
	if i < len(b) && b[i] == '.' {
		if i++; digits() == 0 {
			d.i = i
			return nil, d.syntax("after decimal point in numeric literal")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		if i++; i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if digits() == 0 {
			d.i = i
			return nil, d.syntax("in exponent of numeric literal")
		}
	}
	d.i = i
	return b[start:i], true
}

func (d *bodyDecoder) int(v *int, what string) bool {
	switch d.start() {
	case 0:
		return false
	case 'n':
		return true
	}
	num, ok := d.number(what)
	if !ok {
		return false
	}
	n, err := strconv.ParseInt(string(num), 10, 64)
	if err != nil {
		return d.fail(fmt.Errorf("cannot decode number %s into %s", num, what))
	}
	*v = int(n)
	return true
}

func (d *bodyDecoder) float(v *float64, what string) bool {
	switch d.start() {
	case 0:
		return false
	case 'n':
		return true
	}
	num, ok := d.number(what)
	if !ok {
		return false
	}
	f, err := strconv.ParseFloat(string(num), 64)
	if err != nil {
		return d.fail(fmt.Errorf("cannot decode number %s into %s", num, what))
	}
	*v = f
	return true
}

func (d *bodyDecoder) bool(v *bool, what string) bool {
	switch d.start() {
	case 0:
		return false
	case 'n':
		return true
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	}
	return d.mismatch(what)
}

// decodeSlice decodes an array into *s as encoding/json does: element i is
// decoded in place where *s already has one (its length, then its
// spare capacity), the slice grows by one element at a time past its
// capacity, and ends at the array's length. null sets *s to nil; []
// to an empty, non-nil slice.
func decodeSlice[T any](d *bodyDecoder, s *[]T, what string, elem func(*bodyDecoder, *T) bool) bool {
	switch d.start() {
	case 0:
		return false
	case 'n':
		*s = nil
		return true
	case '[':
	default:
		return d.mismatch(what)
	}
	d.i++
	v, i := *s, 0
	if d.at(']') {
		d.i++
	} else {
		for {
			if i == cap(v) {
				v = slices.Grow(v, 1)
			}
			if i == len(v) {
				v = v[:i+1]
			}
			if !elem(d, &v[i]) {
				return false
			}
			i++
			if !d.more() {
				return d.syntax("")
			}
			if d.b[d.i] == ']' {
				d.i++
				break
			}
			if d.b[d.i] != ',' {
				return d.syntax("after array element")
			}
			d.i++
		}
	}
	if i == 0 {
		v = []T{}
	}
	*s = v[:i]
	return true
}

var (
	whatIfFields = []string{"speeds", "gateways", "links", "bounds", "relax"}
	batchFields  = []string{"queries", "workers"}
	epochFields  = []string{"gatewayFactor", "speedFactor", "linkFactor"}
	valueFields  = []string{"cluster", "value"}
	linkFields   = []string{"link", "maxConnect"}
	boundsFields = []string{"from", "to", "lb", "ub"}
)

func (d *bodyDecoder) whatIf(q *WhatIfRequest) bool {
	return d.object("WhatIfRequest", whatIfFields, func(f int) bool {
		switch f {
		case 0:
			return decodeSlice(d, &q.Speeds, "speeds", clusterValue)
		case 1:
			return decodeSlice(d, &q.Gateways, "gateways", clusterValue)
		case 2:
			return decodeSlice(d, &q.Links, "links", linkValue)
		case 3:
			return decodeSlice(d, &q.Bounds, "bounds", routeBounds)
		}
		return d.bool(&q.Relax, "relax")
	})
}

func (d *bodyDecoder) batch(req *BatchWhatIfRequest) bool {
	return d.object("BatchWhatIfRequest", batchFields, func(f int) bool {
		if f == 0 {
			return decodeSlice(d, &req.Queries, "queries", (*bodyDecoder).whatIf)
		}
		return d.int(&req.Workers, "workers")
	})
}

func (d *bodyDecoder) epoch(req *EpochRequest) bool {
	return d.object("EpochRequest", epochFields, func(f int) bool {
		switch f {
		case 0:
			return decodeSlice(d, &req.GatewayFactor, "gatewayFactor", factor)
		case 1:
			return decodeSlice(d, &req.SpeedFactor, "speedFactor", factor)
		}
		return decodeSlice(d, &req.LinkFactor, "linkFactor", factor)
	})
}

func factor(d *bodyDecoder, v *float64) bool { return d.float(v, "a factor") }

func clusterValue(d *bodyDecoder, v *ClusterValue) bool {
	return d.object("ClusterValue", valueFields, func(f int) bool {
		if f == 0 {
			return d.int(&v.Cluster, "cluster")
		}
		return d.float(&v.Value, "value")
	})
}

func linkValue(d *bodyDecoder, v *LinkValue) bool {
	return d.object("LinkValue", linkFields, func(f int) bool {
		if f == 0 {
			return d.int(&v.Link, "link")
		}
		return d.float(&v.MaxConnect, "maxConnect")
	})
}

func routeBounds(d *bodyDecoder, v *RouteBounds) bool {
	return d.object("RouteBounds", boundsFields, func(f int) bool {
		switch f {
		case 0:
			return d.int(&v.From, "from")
		case 1:
			return d.int(&v.To, "to")
		case 2:
			return d.float(&v.Lb, "lb")
		}
		return d.float(&v.Ub, "ub")
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
