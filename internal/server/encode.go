package server

import (
	"errors"
	"math"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"
)

// This file is the service's one response encoder. It writes the bytes
// json.Encoder.Encode writes for a Response — fields in declaration order,
// omitempty, HTML-safe string escaping, encoding/json's float format,
// assignment keys in sorted order and the trailing newline — by appending
// to a caller's buffer instead of walking the struct by reflection.

// appendResponse appends r to dst as one JSON line. A NaN or infinite
// float, which encoding/json refuses to encode, appends nothing, as
// json.Encoder.Encode then writes nothing.
func appendResponse(dst []byte, r *Response) []byte {
	var e responseEncoder
	return e.append(dst, r)
}

// errNonFinite is MarshalJSON's error for a NaN or infinite float.
var errNonFinite = errors.New("server: response holds a NaN or infinite float")

// MarshalJSON encodes r with the service's response encoder, so every JSON
// writer of a Response — the HTTP handler, its error answers and the
// allocbatch JSONL stream — shares one encoding.
func (r Response) MarshalJSON() ([]byte, error) {
	var e responseEncoder
	b, ok := e.object(nil, &r)
	if !ok {
		return nil, errNonFinite
	}
	return b, nil
}

// responseEncoder holds the reusable scratch of the encoder: one
// assignment map's entries, sorted by name.
type responseEncoder struct {
	pairs []assigned
}

type assigned struct {
	name string
	reg  int
}

// append is appendResponse on the encoder's scratch.
func (e *responseEncoder) append(dst []byte, r *Response) []byte {
	start := len(dst)
	dst, ok := e.object(dst, r)
	if !ok {
		return dst[:start]
	}
	return append(dst, '\n')
}

// object appends r as a JSON object; ok is false when a float is not
// finite.
func (e *responseEncoder) object(dst []byte, r *Response) (_ []byte, ok bool) {
	dst = append(dst, '{')
	dst = appendStringField(dst, `"id":`, r.ID)
	dst = appendStringField(dst, `"func":`, r.Func)
	dst = appendStringField(dst, `"allocator":`, r.Allocator)
	dst = appendIntField(dst, `"registers":`, r.Registers)
	dst = appendStringField(dst, `"machine":`, r.Machine)
	dst = appendIntField(dst, `"values":`, r.Values)
	dst = appendIntField(dst, `"maxlive":`, r.MaxLive)
	if len(r.Spilled) > 0 {
		dst = append(field(dst, `"spilled":`), '[')
		for i, name := range r.Spilled {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendString(dst, name)
		}
		dst = append(dst, ']')
	}
	if dst, ok = appendFloat(field(dst, `"spillCost":`), r.SpillCost); !ok {
		return dst, false
	}
	if len(r.Assignment) > 0 {
		e.pairs = e.pairs[:0]
		for name, reg := range r.Assignment {
			e.pairs = append(e.pairs, assigned{name, reg})
		}
		slices.SortFunc(e.pairs, func(a, b assigned) int { return strings.Compare(a.name, b.name) })
		dst = append(dst, `,"assignment":{`...)
		for i, p := range e.pairs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(append(appendString(dst, p.name), ':'), int64(p.reg), 10)
		}
		dst = append(dst, '}')
		clear(e.pairs) // drop the names until the next response
	}
	dst = appendStringField(dst, `,"rewritten":`, r.Rewritten)
	dst = appendStringField(dst, `,"degraded":`, r.Degraded)
	dst = appendStringField(dst, `,"degradedStage":`, r.DegradedStage)
	if c := r.Coalesce; c != nil {
		dst = appendString(append(dst, `,"coalesce":{"policy":`...), c.Policy)
		dst = strconv.AppendInt(append(dst, `,"moves":`...), int64(c.Moves), 10)
		for _, f := range [...]struct {
			key string
			v   float64
		}{{`,"moveCost":`, c.MoveCost}, {`,"eliminatedCost":`, c.EliminatedCost}, {`,"residualCost":`, c.ResidualCost}} {
			if dst, ok = appendFloat(append(dst, f.key...), f.v); !ok {
				return dst, false
			}
		}
		dst = appendIntField(dst, `,"classes":`, c.Classes)
		dst = appendIntField(dst, `,"merged":`, c.Merged)
		dst = append(dst, '}')
	}
	if r.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if len(r.Results) > 0 {
		dst = append(dst, `,"results":[`...)
		for i := range r.Results {
			if i > 0 {
				dst = append(dst, ',')
			}
			if dst, ok = e.object(dst, &r.Results[i]); !ok {
				return dst, false
			}
		}
		dst = append(dst, ']')
	}
	if st := r.Stats; st != nil {
		dst = strconv.AppendInt(append(dst, `,"stats":{"engines":`...), int64(st.Engines), 10)
		dst = strconv.AppendInt(append(dst, `,"engineCapacity":`...), int64(st.EngineCapacity), 10)
		dst = strconv.AppendUint(append(dst, `,"cacheHits":`...), st.CacheHits, 10)
		dst = strconv.AppendUint(append(dst, `,"cacheMisses":`...), st.CacheMisses, 10)
		dst = strconv.AppendInt(append(dst, `,"cacheEntries":`...), int64(st.CacheEntries), 10)
		dst = strconv.AppendUint(append(dst, `,"cacheEvicted":`...), st.CacheEvicted, 10)
		dst = strconv.AppendInt(append(dst, `,"cacheBytes":`...), st.CacheBytes, 10)
		dst = strconv.AppendInt(append(dst, `,"cacheCapacity":`...), int64(st.CacheCapacity), 10)
		dst = append(dst, '}')
	}
	dst = appendStringField(dst, `,"error":`, r.Error)
	return append(dst, '}'), true
}

// field appends an object member's key. Only the members before
// spillCost, which is always present, can be an object's first; their keys
// come without the separating comma, which field adds unless the member is
// first. Every later key carries its comma.
func field(dst []byte, key string) []byte {
	if key[0] != ',' && dst[len(dst)-1] != '{' {
		dst = append(dst, ',')
	}
	return append(dst, key...)
}

// appendStringField appends key and s unless s is empty (omitempty).
func appendStringField(dst []byte, key, s string) []byte {
	if s == "" {
		return dst
	}
	return appendString(field(dst, key), s)
}

// appendIntField appends key and n unless n is zero (omitempty).
func appendIntField(dst []byte, key string, n int) []byte {
	if n == 0 {
		return dst
	}
	return strconv.AppendInt(field(dst, key), int64(n), 10)
}

// appendFloat appends f as encoding/json does: like %g, but with the
// exponent form only below 1e-6 and from 1e21, and a one-digit negative
// exponent unpadded. ok is false for NaN and infinities.
func appendFloat(dst []byte, f float64) (_ []byte, ok bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		// Clean up e-09 to e-9.
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, true
}

const hexDigits = "0123456789abcdef"

// appendString appends s as a JSON string as encoding/json does with HTML
// escaping on: quotes, backslashes and control bytes escaped, '<', '>' and
// '&' as \u003c, \u003e and \u0026, invalid UTF-8 replaced by \ufffd,
// and U+2028 and U+2029 escaped.
func appendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		if c == utf8.RuneError && size == 1 {
			dst = append(append(dst, s[start:i]...), `\ufffd`...)
			i += size
			start = i
			continue
		}
		if c == '\u2028' || c == '\u2029' {
			dst = append(append(dst, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(append(dst, s[start:]...), '"')
}
