// The request envelope decoder: one strict pass over a /v1/design body.
package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// decodeRequest decodes a /v1/design body (or one /v1/designs item) in one
// pass: the DesignRequest object, or null for the zero request, with nothing
// after it but whitespace. It accepts exactly the bodies a json.Decoder with
// DisallowUnknownFields accepts as one value into a DesignRequest, and
// yields the same values: keys match field names as bytes.EqualFold does,
// the last of repeated keys wins, a repeated hier object merges into the
// first, null leaves a field as it was (and sets hier to nil), strings
// unescape as encoding/json unescapes them, invalid UTF-8 and lone
// surrogates included, and integers are strconv.ParseInt's. Req.Trace stays
// empty: the trace comes back unescaped as its own slice — the body's
// largest field copied once, never held as a string, or a sub-slice of the
// body when it holds no escape (a trace of more than one line always does;
// the body outlives the plan either way). The oracle is
// decodeRequestJSON (envelope_ref_test.go), and FuzzDesignRequestDecode
// holds the two to each other.
func decodeRequest(raw []byte) (req DesignRequest, trace []byte, err error) {
	d := envDecoder{b: raw}
	d.space()
	if !d.null() {
		err = d.object(func(key []byte) error { return d.requestField(&req, &trace, key) })
		if err != nil {
			return DesignRequest{}, nil, err
		}
	}
	if d.space(); d.i < len(d.b) {
		return DesignRequest{}, nil, d.errorf("unexpected data after the request object")
	}
	return req, trace, nil
}

// envDecoder reads a JSON body from b, position i.
type envDecoder struct {
	b []byte
	i int
}

func (d *envDecoder) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: %s", d.i, fmt.Sprintf(format, args...))
}

// space skips JSON whitespace.
func (d *envDecoder) space() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// null consumes the literal null if it comes next.
func (d *envDecoder) null() bool {
	if !bytes.HasPrefix(d.b[d.i:], []byte("null")) {
		return false
	}
	d.i += len("null")
	return true
}

// object reads an object, handing each key, unescaped, to field, which
// reads the value that follows the colon.
func (d *envDecoder) object(field func(key []byte) error) error {
	if d.i >= len(d.b) || d.b[d.i] != '{' {
		return d.errorf("want an object")
	}
	d.i++
	d.space()
	if d.i < len(d.b) && d.b[d.i] == '}' {
		d.i++
		return nil
	}
	for {
		d.space()
		key, err := d.str()
		if err != nil {
			return err
		}
		if d.space(); d.i >= len(d.b) || d.b[d.i] != ':' {
			return d.errorf("want ':' after an object key")
		}
		d.i++
		d.space()
		if err := field(key); err != nil {
			return err
		}
		if d.space(); d.i >= len(d.b) {
			return d.errorf("unexpected end of body")
		}
		switch d.b[d.i] {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.errorf("want ',' or '}' after an object value")
		}
	}
}

// requestField reads the value of the DesignRequest field named key.
func (d *envDecoder) requestField(req *DesignRequest, trace *[]byte, key []byte) error {
	switch {
	case bytes.EqualFold(key, []byte("benchmark")):
		return d.stringField(&req.Benchmark)
	case bytes.EqualFold(key, []byte("procs")):
		return d.intField(&req.Procs)
	case bytes.EqualFold(key, []byte("iterations")):
		return d.intField(&req.Iterations)
	case bytes.EqualFold(key, []byte("trace")):
		if d.null() {
			return nil
		}
		s, err := d.str()
		*trace = s
		return err
	case bytes.EqualFold(key, []byte("lane")):
		return d.stringField(&req.Lane)
	case bytes.EqualFold(key, []byte("seed")):
		if d.null() {
			return nil
		}
		n, err := d.integer()
		req.Seed = n
		return err
	case bytes.EqualFold(key, []byte("max_degree")):
		return d.intField(&req.MaxDegree)
	case bytes.EqualFold(key, []byte("max_procs")):
		return d.intField(&req.MaxProcs)
	case bytes.EqualFold(key, []byte("restarts")):
		return d.intField(&req.Restarts)
	case bytes.EqualFold(key, []byte("hier")):
		if d.null() {
			req.Hier = nil
			return nil
		}
		if req.Hier == nil {
			req.Hier = new(HierRequest)
		}
		return d.object(func(key []byte) error { return d.hierField(req.Hier, key) })
	}
	return d.errorf("unknown field %q", key)
}

// hierField reads the value of the HierRequest field named key.
func (d *envDecoder) hierField(h *HierRequest, key []byte) error {
	switch {
	case bytes.EqualFold(key, []byte("clusters")):
		return d.stringField(&h.Clusters)
	case bytes.EqualFold(key, []byte("max_gateways")):
		return d.intField(&h.MaxGateways)
	case bytes.EqualFold(key, []byte("gateway_width")):
		return d.intField(&h.GatewayWidth)
	case bytes.EqualFold(key, []byte("noi_link_delay")):
		return d.intField(&h.NoILinkDelay)
	case bytes.EqualFold(key, []byte("noi_max_degree")):
		return d.intField(&h.NoIMaxDegree)
	case bytes.EqualFold(key, []byte("noi_max_procs")):
		return d.intField(&h.NoIMaxProcs)
	}
	return d.errorf("unknown field %q", key)
}

// stringField reads a string into dst; null leaves dst as it was.
func (d *envDecoder) stringField(dst *string) error {
	if d.null() {
		return nil
	}
	s, err := d.str()
	*dst = string(s)
	return err
}

// intField reads an integer into dst; null leaves dst as it was.
func (d *envDecoder) intField(dst *int) error {
	if d.null() {
		return nil
	}
	n, err := d.integer()
	if err == nil && int64(int(n)) != n {
		err = d.errorf("integer %d overflows int", n)
	}
	*dst = int(n)
	return err
}

// integer reads a JSON number that strconv.ParseInt takes: an optional
// minus, then 0 or a digit string without a leading zero, with no fraction
// or exponent, and in int64's range.
func (d *envDecoder) integer() (int64, error) {
	start := d.i
	if d.i < len(d.b) && d.b[d.i] == '-' {
		d.i++
	}
	digits := d.i
	for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
		d.i++
	}
	switch {
	case d.i == digits:
		return 0, d.errorf("want an integer")
	case d.b[digits] == '0' && d.i > digits+1:
		return 0, d.errorf("integer with a leading zero")
	case d.i < len(d.b) && (d.b[d.i] == '.' || d.b[d.i] == 'e' || d.b[d.i] == 'E'):
		return 0, d.errorf("want an integer, not a fraction or an exponent")
	}
	n, err := strconv.ParseInt(string(d.b[start:d.i]), 10, 64)
	if err != nil {
		return 0, d.errorf("%v", errors.Unwrap(err))
	}
	return n, nil
}

// str reads a string and returns its contents unescaped: a sub-slice of the
// body when none of it needs unescaping, a fresh slice otherwise. Invalid
// UTF-8 and lone or unpaired surrogate escapes become U+FFFD, one for each
// invalid byte, as encoding/json has them.
func (d *envDecoder) str() ([]byte, error) {
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return nil, d.errorf("want a string")
	}
	d.i++
	start := d.i
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			return d.b[start : d.i-1], nil
		case c == '\\' || c < 0x20:
			return d.unescape(start)
		case c < utf8.RuneSelf:
			d.i++
		default:
			r, size := utf8.DecodeRune(d.b[d.i:])
			if r == utf8.RuneError && size == 1 {
				return d.unescape(start)
			}
			d.i += size
		}
	}
	return nil, d.errorf("unterminated string")
}

// unescape finishes a string that needs unescaping, whose contents begin at
// start and need none before d.i, into a slice sized by the string's raw
// length (an invalid byte's U+FFFD can outgrow it, and append grows it).
func (d *envDecoder) unescape(start int) ([]byte, error) {
	end := d.i
	for {
		q := bytes.IndexByte(d.b[end:], '"')
		if q < 0 {
			return nil, d.errorf("unterminated string")
		}
		end += q
		backslashes := 0
		for end-backslashes-1 >= d.i && d.b[end-backslashes-1] == '\\' {
			backslashes++
		}
		if backslashes%2 == 0 {
			break
		}
		end++
	}
	out := append(make([]byte, 0, end-start), d.b[start:d.i]...)
	for d.i < end {
		c := d.b[d.i]
		switch {
		case c < 0x20:
			return nil, d.errorf("control character %#x in a string", c)
		case c == '\\':
			if d.i+1 >= end {
				return nil, d.errorf("unterminated escape")
			}
			switch e := d.b[d.i+1]; e {
			case '"', '\\', '/':
				out = append(out, e)
			case 'b':
				out = append(out, '\b')
			case 'f':
				out = append(out, '\f')
			case 'n':
				out = append(out, '\n')
			case 'r':
				out = append(out, '\r')
			case 't':
				out = append(out, '\t')
			case 'u':
				r := hex4(d.b[d.i:end])
				if r < 0 {
					return nil, d.errorf("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A pair is consumed whole; anything else leaves its
					// second escape to be read on its own.
					if pair := utf16.DecodeRune(r, hex4(d.b[d.i+6:end])); pair != unicode.ReplacementChar {
						r = pair
						d.i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				out = utf8.AppendRune(out, r)
				d.i += 6
				continue
			default:
				return nil, d.errorf("invalid escape '\\%c'", e)
			}
			d.i += 2
		case c < utf8.RuneSelf:
			// A run of plain ASCII — a trace line between its \n escapes —
			// is copied whole.
			run := d.b[d.i:end]
			j := 1
			for j < len(run) && plainASCII[run[j]] {
				j++
			}
			out = append(out, run[:j]...)
			d.i += j
		default:
			r, size := utf8.DecodeRune(d.b[d.i:end])
			if r == utf8.RuneError && size == 1 {
				out = utf8.AppendRune(out, utf8.RuneError)
			} else {
				out = append(out, d.b[d.i:d.i+size]...)
			}
			d.i += size
		}
	}
	d.i = end + 1
	return out, nil
}

// plainASCII marks the bytes unescaping copies as they are: ASCII but for
// control characters and the backslash. A run never reaches a quote: it
// stops at the closing one's index, and any other is escaped.
var plainASCII = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '\\'
	}
	return t
}()

// hex4 decodes the \uXXXX escape b begins with, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 6 || b[0] != '\\' || b[1] != 'u' {
		return -1
	}
	var r rune
	for _, c := range b[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}
