package server

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// This file is the service's one request decoder, shared by the HTTP
// handler and the allocbatch JSONL stream.

// DecodeRequest decodes one JSON request body into req, which it zeroes
// first. encoding/json defines the accepted language and every error text:
// the Request and the error are those json.Unmarshal gives on a zeroed
// Request. Only a subset of that language takes the fast path, which reads
// the body in one pass without reflection: one object whose keys are the
// exact field names, with string, integer and boolean values, simple
// escapes (no \u) and valid UTF-8. Everything else — errors, unknown or
// case-variant keys, \u escapes, null, non-integer numbers, invalid UTF-8 —
// goes to json.Unmarshal. Either way every decoded string is a copy, so req
// never points into data. The fast path copies the strings of at most
// sharedMax bytes into one string and gives each longer one its own, so a
// short field kept for long (an allocator or machine name keying an engine)
// never keeps a large IR, Module or ID alive.
func DecodeRequest(data []byte, req *Request) error {
	if decodeCanonical(data, req) {
		return nil
	}
	var r Request // escapes to json.Unmarshal, req need not
	err := json.Unmarshal(data, &r)
	*req = r
	return err
}

// The string fields of a Request, in the order decodeCanonical fills them.
const (
	fieldID = iota
	fieldIR
	fieldModule
	fieldAllocator
	fieldMachine
	fieldCoalesce
	numStringFields
)

// sharedMax is the longest decoded string the fast path copies into the
// request's shared string. With six string fields that string holds at most
// 6·sharedMax bytes, and a longer string shares its memory with nothing.
const sharedMax = 64

// rawString is one string value as it stands in the body: the bytes
// between its quotes, its decoded length and whether it holds an escape.
type rawString struct {
	lo, hi, n int
	escaped   bool
}

// decodeCanonical decodes data into req when data is canonical (see
// DecodeRequest) and reports whether it was; on false req is untouched.
func decodeCanonical(data []byte, req *Request) bool {
	d := decoder{data: data}
	var strs [numStringFields]rawString
	var r Request
	d.space()
	if !d.eat('{') {
		return false
	}
	if d.space(); !d.eat('}') {
		for {
			key, ok := d.str()
			if !ok || key.escaped {
				return false
			}
			if d.space(); !d.eat(':') {
				return false
			}
			d.space()
			switch string(data[key.lo:key.hi]) {
			case "id":
				strs[fieldID], ok = d.str()
			case "ir":
				strs[fieldIR], ok = d.str()
			case "module":
				strs[fieldModule], ok = d.str()
			case "registers":
				r.Registers, ok = d.integer()
			case "allocator":
				strs[fieldAllocator], ok = d.str()
			case "machine":
				strs[fieldMachine], ok = d.str()
			case "coalesce":
				strs[fieldCoalesce], ok = d.str()
			case "print":
				r.Print, ok = d.boolean()
			case "stats":
				r.Stats, ok = d.boolean()
			default:
				return false
			}
			if !ok {
				return false
			}
			d.space()
			if d.eat('}') {
				break
			}
			if !d.eat(',') {
				return false
			}
			d.space()
		}
	}
	if d.space(); d.i != len(data) {
		return false
	}
	shared := 0
	for _, s := range strs {
		if s.n <= sharedMax {
			shared += s.n
		}
	}
	var b strings.Builder
	b.Grow(shared)
	var vals [numStringFields]string
	for f, s := range strs {
		switch {
		case s.n == 0:
		case s.n <= sharedMax:
			start := b.Len()
			d.unquote(&b, s)
			// A Builder only appends, so an earlier String stays valid.
			vals[f] = b.String()[start:]
		default:
			var own strings.Builder
			own.Grow(s.n)
			d.unquote(&own, s)
			vals[f] = own.String()
		}
	}
	r.ID, r.IR, r.Module = vals[fieldID], vals[fieldIR], vals[fieldModule]
	r.Allocator, r.Machine, r.Coalesce = vals[fieldAllocator], vals[fieldMachine], vals[fieldCoalesce]
	*req = r
	return true
}

// decoder is a cursor over a canonical request body.
type decoder struct {
	data []byte
	i    int
}

func (d *decoder) space() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) eat(c byte) bool {
	if d.i < len(d.data) && d.data[d.i] == c {
		d.i++
		return true
	}
	return false
}

// plain marks the bytes a canonical string holds as themselves: printable
// ASCII other than the quote and the backslash. Bytes from 0x80 on are
// checked as UTF-8 once the string ends.
var plain = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// unescaped maps the letter after a backslash to the byte it stands for;
// 0 marks an escape the fast path does not take (\u, or none at all).
var unescaped = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// str scans one canonical string.
func (d *decoder) str() (s rawString, ok bool) {
	if !d.eat('"') {
		return s, false
	}
	data, i := d.data, d.i
	s.lo = i
	ascii := true
	for i < len(data) {
		c := data[i]
		switch {
		case plain[c]:
			i++
		case c == '"':
			s.hi, d.i = i, i+1
			s.n += s.hi - s.lo
			return s, ascii || utf8.Valid(data[s.lo:s.hi])
		case c == '\\':
			if i+1 >= len(data) || unescaped[data[i+1]] == 0 {
				return s, false
			}
			s.escaped = true
			s.n-- // two bytes in the body, one decoded
			i += 2
		case c >= utf8.RuneSelf:
			ascii = false
			i++
		default: // a control character
			return s, false
		}
	}
	return s, false
}

// unquote appends the decoded value of s to b.
func (d *decoder) unquote(b *strings.Builder, s rawString) {
	raw := d.data[s.lo:s.hi]
	for {
		i := bytes.IndexByte(raw, '\\')
		if i < 0 {
			b.Write(raw)
			return
		}
		b.Write(raw[:i])
		b.WriteByte(unescaped[raw[i+1]])
		raw = raw[i+2:]
	}
}

// integer scans one canonical integer: no fraction, no exponent, no
// leading zero, at most 18 digits, and within the range of int.
func (d *decoder) integer() (int, bool) {
	neg := d.eat('-')
	start := d.i
	var v int64
	for d.i < len(d.data) && '0' <= d.data[d.i] && d.data[d.i] <= '9' {
		v = 10*v + int64(d.data[d.i]-'0')
		d.i++
	}
	digits := d.i - start
	if digits == 0 || digits > 18 || (digits > 1 && d.data[start] == '0') {
		return 0, false
	}
	if d.i < len(d.data) {
		switch d.data[d.i] {
		case '.', 'e', 'E':
			return 0, false
		}
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	return int(v), true
}

// boolean scans true or false.
func (d *decoder) boolean() (bool, bool) {
	rest := d.data[d.i:]
	switch {
	case len(rest) >= 4 && string(rest[:4]) == "true":
		d.i += 4
		return true, true
	case len(rest) >= 5 && string(rest[:5]) == "false":
		d.i += 5
		return false, true
	}
	return false, false
}
