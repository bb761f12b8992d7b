// Package jsonwire writes and reads JSON that is byte for byte what
// encoding/json produces, without reflection. It is the one home for the
// repository's same-bytes encoders: the tracer's event encoder and the
// service wire's typed codecs build on it, so goldens, trace files and
// identity digests that hash their output cannot tell the difference.
//
// The Append functions format one scalar. The Writer lays out objects and
// the elements of arrays in either of encoding/json's two layouts:
// json.Marshal's compact form, or a json.Encoder's after SetIndent("",
// "  "). The Scanner reads
// back only the canonical subset the Writer emits — flat objects of plain
// literals, an array of them, or null — and reports anything else as not
// handled, so its caller hands the input to encoding/json and gets exactly
// the values and error texts it always got.
//
// Every function is checked against encoding/json by the tests of this
// package and of its callers; a divergence is a bug here, never a reason
// to regenerate a golden.
package jsonwire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// AppendInt formats a signed integer (json renders integers as plain
// decimal).
func AppendInt(buf []byte, v int64) []byte {
	if v < 0 {
		buf = append(buf, '-')
		return AppendUint(buf, uint64(-v))
	}
	return AppendUint(buf, uint64(v))
}

// AppendUint formats an unsigned integer.
func AppendUint(buf []byte, v uint64) []byte {
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(buf, tmp[i:]...)
}

// AppendFloat formats a float64 as encoding/json does: the shortest
// round-tripping decimal in 'f' form, switching to 'e' form below 1e-6 and
// from 1e21 up, with a one-digit negative exponent written e-7, not e-07.
// -0 renders as -0. NaN and ±Inf are not JSON: like json.Marshal it
// returns *json.UnsupportedValueError and leaves buf as it was.
func AppendFloat(buf []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return buf, &json.UnsupportedValueError{
			Value: reflect.ValueOf(f),
			Str:   strconv.FormatFloat(f, 'g', -1, 64),
		}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	buf = strconv.AppendFloat(buf, f, format, -1, 64)
	if format == 'e' {
		if n := len(buf); n >= 4 && buf[n-4] == 'e' && buf[n-3] == '-' && buf[n-2] == '0' {
			buf[n-2] = buf[n-1]
			buf = buf[:n-1]
		}
	}
	return buf, nil
}

const hexDigits = "0123456789abcdef"

// jsonSafe marks bytes encoding/json emits verbatim inside a string: ASCII
// printables except '"', '\\', and the HTML-escaped '<', '>', '&'.
var jsonSafe = [256]bool{}

func init() {
	for c := 0x20; c < 0x7f; c++ {
		jsonSafe[c] = true
	}
	jsonSafe['"'] = false
	jsonSafe['\\'] = false
	jsonSafe['<'] = false
	jsonSafe['>'] = false
	jsonSafe['&'] = false
}

// AppendString appends a JSON string literal exactly as encoding/json's
// default (HTML-escaping) encoder renders it: '<', '>', '&' as \u003c-style
// escapes, control characters escaped (with \n, \r, \t shorthands), U+2028
// and U+2029 escaped, and invalid UTF-8 replaced by \ufffd.
func AppendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if jsonSafe[b] {
				i++
				continue
			}
			buf = append(buf, s[start:i]...)
			switch b {
			case '\\':
				buf = append(buf, '\\', '\\')
			case '"':
				buf = append(buf, '\\', '"')
			case '\b':
				buf = append(buf, '\\', 'b')
			case '\f':
				buf = append(buf, '\\', 'f')
			case '\n':
				buf = append(buf, '\\', 'n')
			case '\r':
				buf = append(buf, '\\', 'r')
			case '\t':
				buf = append(buf, '\\', 't')
			default:
				// Control characters and the HTML trio.
				buf = append(buf, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			// encoding/json emits the six-character escape for invalid UTF-8.
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\ufffd`...)
			i++
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			buf = append(buf, s[start:i]...)
			buf = append(buf, `\u202`...)
			buf = append(buf, hexDigits[r&0xf])
			i += size
			start = i
			continue
		}
		i += size
	}
	buf = append(buf, s[start:]...)
	return append(buf, '"')
}
