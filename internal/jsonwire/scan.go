package jsonwire

import (
	"bytes"
	"strconv"
)

// Scanner reads the canonical JSON a Writer emits: one flat object of
// plain literals, an array of such objects, or null, with any JSON
// whitespace between tokens. It never guesses. Anything outside that
// subset — escapes or non-ASCII bytes in a string value, nesting, null
// members, numbers outside JSON's grammar or the target's range — fails the
// scan, and the caller's key switch fails it on a key that is not a field's
// exact name. Keys are read raw, up to the next quote: a field name is
// printable ASCII without a backslash, and a key holding an escape always
// holds one, so an escaped, non-ASCII or case-folded key never matches and
// falls back. A failure is sticky: later calls return zero values, loops end,
// and Done reports false, so the caller hands the input to encoding/json.
//
// A decoder reads into a local value and copies it out only when Done
// reports true, so a partial fill is never visible:
//
//	s := jsonwire.NewScanner(data)
//	s.BeginObject()
//	for s.NextKey() {
//		switch string(s.Key()) {
//		case "count":
//			v.Count = s.Int64()
//		default:
//			s.Fail()
//		}
//	}
//	if !s.Done() { /* fall back to encoding/json */ }
type Scanner struct {
	data  []byte
	pos   int
	key   []byte
	empty bool // the innermost open container has no member yet
	bad   bool
}

// NewScanner returns a scanner over data.
func NewScanner(data []byte) Scanner { return Scanner{data: data} }

// Fail marks the input as outside the canonical subset.
func (s *Scanner) Fail() { s.bad = true }

// Done reports whether every call succeeded and only whitespace remains.
func (s *Scanner) Done() bool {
	s.skipSpace()
	return !s.bad && s.pos == len(s.data)
}

// Null consumes a null literal if that is the next token.
func (s *Scanner) Null() bool {
	s.skipSpace()
	if s.bad || !s.literal("null") {
		return false
	}
	return true
}

// BeginObject expects an object's opening brace.
func (s *Scanner) BeginObject() { s.open('{') }

// BeginArray expects an array's opening bracket.
func (s *Scanner) BeginArray() { s.open('[') }

// NextKey moves to the innermost object's next member and reads its key,
// reporting false at the closing brace or on failure. The key is the raw
// bytes up to the next quote; the caller's exact-name switch fails any key
// that is not a field's name.
func (s *Scanner) NextKey() bool {
	if !s.more('}') {
		return false
	}
	s.expect('"')
	if s.bad {
		return false
	}
	end := bytes.IndexByte(s.data[s.pos:], '"')
	if end < 0 {
		s.bad = true
		return false
	}
	s.key = s.data[s.pos : s.pos+end]
	s.pos += end + 1
	s.skipSpace()
	s.expect(':')
	return !s.bad
}

// Key is the raw key NextKey read.
func (s *Scanner) Key() []byte { return s.key }

// NextElement moves to the innermost array's next element, reporting false
// at the closing bracket or on failure.
func (s *Scanner) NextElement() bool { return s.more(']') }

// Int64 reads an integer matching -?(0|[1-9][0-9]*) that fits in an int64,
// the integers strconv.ParseInt accepts in JSON's grammar.
func (s *Scanner) Int64() int64 {
	s.skipSpace()
	if s.bad {
		return 0
	}
	neg := s.peek() == '-'
	if neg {
		s.pos++
	}
	start := s.pos
	for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
		s.pos++
	}
	digits := s.data[start:s.pos]
	// 19 digits hold every int64; a leading zero, a fraction or an
	// exponent is not an integer.
	if len(digits) == 0 || len(digits) > 19 || digits[0] == '0' && len(digits) > 1 {
		s.bad = true
		return 0
	}
	if c := s.peek(); c == '.' || c == 'e' || c == 'E' {
		s.bad = true
		return 0
	}
	var u uint64
	for _, d := range digits {
		u = u*10 + uint64(d-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u)
	case !neg && u < 1<<63:
		return int64(u)
	}
	s.bad = true
	return 0
}

// Int reads an integer that fits in an int.
func (s *Scanner) Int() int {
	v := s.Int64()
	if int64(int(v)) != v {
		s.bad = true
		return 0
	}
	return int(v)
}

// Float64 reads a number in JSON's grammar that strconv.ParseFloat takes
// without error, as encoding/json does for a float64 field.
func (s *Scanner) Float64() float64 {
	s.skipSpace()
	if s.bad {
		return 0
	}
	start := s.pos
	if s.peek() == '-' {
		s.pos++
	}
	switch c := s.peek(); {
	case c == '0':
		s.pos++
	case c >= '1' && c <= '9':
		s.digits()
	default:
		s.bad = true
		return 0
	}
	if s.peek() == '.' {
		s.pos++
		s.digits()
	}
	if c := s.peek(); c == 'e' || c == 'E' {
		s.pos++
		if c := s.peek(); c == '+' || c == '-' {
			s.pos++
		}
		s.digits()
	}
	if s.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(s.data[start:s.pos]), 64)
	if err != nil {
		s.bad = true
		return 0
	}
	return f
}

// Bool reads true or false.
func (s *Scanner) Bool() bool {
	s.skipSpace()
	switch {
	case s.bad:
	case s.literal("true"):
		return true
	case s.literal("false"):
		return false
	default:
		s.bad = true
	}
	return false
}

// String reads a string of printable ASCII without escapes.
func (s *Scanner) String() string {
	s.skipSpace()
	return string(s.plainString())
}

// StringOr reads a string as String does, but returns known, without
// allocating a copy, when the string equals it.
func (s *Scanner) StringOr(known string) string {
	s.skipSpace()
	if b := s.plainString(); string(b) != known {
		return string(b)
	}
	return known
}

func (s *Scanner) open(c byte) {
	s.skipSpace()
	s.expect(c)
	s.empty = true
}

// more reports whether the innermost container has another member: false
// at its closing byte, which it consumes, leaving the parent non-empty;
// otherwise it expects the comma that follows every member but the first.
func (s *Scanner) more(closing byte) bool {
	s.skipSpace()
	if s.bad {
		return false
	}
	if s.peek() == closing {
		s.pos++
		s.empty = false
		return false
	}
	if !s.empty {
		s.expect(',')
		s.skipSpace()
	}
	s.empty = false
	return !s.bad
}

// plainString reads a quoted run of printable ASCII other than '"' and
// '\\', returning the bytes between the quotes.
func (s *Scanner) plainString() []byte {
	s.expect('"')
	start := s.pos
	for s.pos < len(s.data) && plain[s.data[s.pos]] {
		s.pos++
	}
	end := s.pos
	s.expect('"')
	if s.bad {
		return nil
	}
	return s.data[start:end]
}

// digits consumes one or more decimal digits.
func (s *Scanner) digits() {
	start := s.pos
	for s.pos < len(s.data) && isDigit(s.data[s.pos]) {
		s.pos++
	}
	if s.pos == start {
		s.bad = true
	}
}

func (s *Scanner) literal(lit string) bool {
	if len(s.data)-s.pos < len(lit) || string(s.data[s.pos:s.pos+len(lit)]) != lit {
		return false
	}
	s.pos += len(lit)
	return true
}

func (s *Scanner) expect(c byte) {
	if s.bad || s.peek() != c {
		s.bad = true
		return
	}
	s.pos++
}

// peek returns the next byte, or 0 at the end of the input.
func (s *Scanner) peek() byte {
	if s.pos < len(s.data) {
		return s.data[s.pos]
	}
	return 0
}

// skipSpace skips JSON's four whitespace bytes.
func (s *Scanner) skipSpace() {
	for s.pos < len(s.data) {
		if c := s.data[s.pos]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return
		}
		s.pos++
	}
}

// plain marks the bytes a canonical string holds: printable ASCII other
// than '"' and '\\'.
var plain = [256]bool{}

func init() {
	for c := 0x20; c < 0x7f; c++ {
		plain[c] = c != '"' && c != '\\'
	}
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }
