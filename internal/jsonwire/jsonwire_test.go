package jsonwire

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"nostop/internal/rng"
)

// hardFloats are the float64 values where encoding/json's formatting rule
// has an edge: both sides of the 'e' cut-offs, subnormals, the extremes,
// signed zero, and one-digit negative exponents.
var hardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.25, 1.5, 100, 1234.5678,
	1e-6, 9.999999999999999e-7, 1e-7, -1e-7, 1.5e-9, 1e-10,
	1e20, 99999999999999990000, 1e21, -1e21, 1.2345e22, 1e100, 1e-100,
	5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
	math.MaxInt64, math.MinInt64, 1 << 53, 1<<53 + 1, 0.3, 2.0 / 3,
}

func marshalString(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("json.Marshal(%v): %v", v, err)
	}
	return string(b)
}

// TestAppendFloatMatchesEncodingJSON compares AppendFloat with json.Marshal
// on the hard cases and on random bit patterns, which cover every exponent
// range evenly.
func TestAppendFloatMatchesEncodingJSON(t *testing.T) {
	check := func(f float64) {
		t.Helper()
		got, err := AppendFloat([]byte("x"), f)
		if err != nil {
			t.Fatalf("AppendFloat(%v): %v", f, err)
		}
		if want := "x" + marshalString(t, f); string(got) != want {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
	for _, f := range hardFloats {
		check(f)
		check(-f)
	}
	r := rng.New(7).Split("jsonwire/float").Rand()
	for i := 0; i < 20000; i++ {
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		check(f)
	}
}

// TestAppendFloatUnsupported: NaN and ±Inf fail with encoding/json's error
// text and leave the buffer as it was.
func TestAppendFloatUnsupported(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(f)
		got, err := AppendFloat([]byte("x"), f)
		if err == nil || want == nil || err.Error() != want.Error() {
			t.Fatalf("AppendFloat(%v) error %v, want %v", f, err, want)
		}
		if string(got) != "x" {
			t.Fatalf("AppendFloat(%v) appended %q", f, got)
		}
	}
}

func TestAppendIntMatchesEncodingJSON(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64} {
		if got, want := string(AppendInt(nil, v)), marshalString(t, v); got != want {
			t.Fatalf("AppendInt(%d) = %s, want %s", v, got, want)
		}
	}
	for _, v := range []uint64{0, 7, math.MaxUint64} {
		if got, want := string(AppendUint(nil, v)), marshalString(t, v); got != want {
			t.Fatalf("AppendUint(%d) = %s, want %s", v, got, want)
		}
	}
}

// member is a flat object with one field of each kind the Writer and the
// Scanner handle.
type member struct {
	A int64   `json:"a"`
	B float64 `json:"b"`
	C bool    `json:"c"`
	D string  `json:"d"`
	E int     `json:"e"`
}

func writeMember(w *Writer, m member) {
	w.BeginObject()
	w.Int("a", m.A)
	w.Float("b", m.B)
	w.Bool("c", m.C)
	w.String("d", m.D)
	w.Int("e", int64(m.E))
	w.EndObject()
}

func scanMember(s *Scanner) member {
	var m member
	s.BeginObject()
	for s.NextKey() {
		switch string(s.Key()) {
		case "a":
			m.A = s.Int64()
		case "b":
			m.B = s.Float64()
		case "c":
			m.C = s.Bool()
		case "d":
			m.D = s.String()
		case "e":
			m.E = s.Int()
		default:
			s.Fail()
		}
	}
	return m
}

// scanMembers reads null or an array of members.
func scanMembers(data []byte) ([]member, bool) {
	s := NewScanner(data)
	if s.Null() {
		return nil, s.Done()
	}
	ms := []member{}
	s.BeginArray()
	for s.NextElement() {
		ms = append(ms, scanMember(&s))
	}
	return ms, s.Done()
}

// reference renders v as json.Marshal does, or, indented, as a json.Encoder
// after SetIndent("", "  ") does, trailing newline included.
func reference(t *testing.T, v any, layout Layout) string {
	t.Helper()
	if layout == Compact {
		return marshalString(t, v)
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("Encode(%v): %v", v, err)
	}
	return b.String()
}

func render(w *Writer, layout Layout) ([]byte, error) {
	if layout == Compact {
		return w.Bytes()
	}
	return w.Line()
}

// TestWriterMatchesEncodingJSON lays out objects, arrays of objects and
// empty containers in both layouts and compares them with encoding/json's
// output; and checks that each comes back through the Scanner unchanged.
func TestWriterMatchesEncodingJSON(t *testing.T) {
	r := rng.New(11).Split("jsonwire/writer").Rand()
	strs := []string{"", "engine-0", "a<b>&\"c\\", "tab\tnl\n"}
	randMember := func() member {
		return member{
			A: r.Int63() - r.Int63(),
			B: hardFloats[r.Intn(len(hardFloats))] * float64(r.Intn(3)-1),
			C: r.Intn(2) == 0,
			D: strs[r.Intn(len(strs))],
			E: r.Intn(100) - 50,
		}
	}
	for _, layout := range []Layout{Compact, Indented} {
		for n := 0; n <= 4; n++ {
			ms := []member{}
			for i := 0; i < n; i++ {
				ms = append(ms, randMember())
			}
			w := NewWriter([]byte("prefix"), layout)
			w.BeginArray()
			for _, m := range ms {
				writeMember(&w, m)
			}
			got, err := w.Bytes()
			if err != nil {
				t.Fatal(err)
			}
			// The open array is encoding/json's up to its closing bracket,
			// which a non-empty indented array puts on a line of its own.
			ref := reference(t, ms, layout)
			closing := ref[strings.LastIndexByte(ref, ']'):]
			if n > 0 && layout == Indented {
				closing = "\n" + closing
			}
			if want := "prefix" + strings.TrimSuffix(ref, closing); string(got) != want {
				t.Fatalf("layout %d, %d members:\n got %q\nwant %q", layout, n, got, want)
			}
			back, ok := scanMembers(append(got[len("prefix"):], closing...))
			plain := true
			for _, m := range ms {
				plain = plain && (m.D == "" || m.D == "engine-0")
			}
			if plain && (!ok || !reflect.DeepEqual(back, ms)) {
				t.Fatalf("scanner read %q as %v, %v; want %v", got, back, ok, ms)
			}
		}

		m := randMember()
		w := NewWriter(nil, layout)
		writeMember(&w, m)
		got, _ := render(&w, layout)
		if want := reference(t, m, layout); string(got) != want {
			t.Fatalf("layout %d object:\n got %q\nwant %q", layout, got, want)
		}
		w = NewWriter(nil, layout)
		w.BeginObject()
		w.EndObject()
		got, _ = render(&w, layout)
		if want := reference(t, struct{}{}, layout); string(got) != want {
			t.Fatalf("layout %d empty object: got %q, want %q", layout, got, want)
		}
	}
}

// TestWriterUnsupportedFloat: a NaN member fails the whole value with
// encoding/json's error, and nothing is appended.
func TestWriterUnsupportedFloat(t *testing.T) {
	w := NewWriter([]byte("keep"), Indented)
	writeMember(&w, member{B: math.NaN()})
	got, err := w.Line()
	_, want := json.Marshal(member{B: math.NaN()})
	if err == nil || err.Error() != want.Error() || string(got) != "keep" {
		t.Fatalf("got %q, %v; want %q, %v", got, err, "keep", want)
	}
}

// TestScannerFallsBack lists inputs outside the canonical subset: each
// must fail the scan. Whatever the scanner does accept must decode to what
// json.Unmarshal gives.
func TestScannerFallsBack(t *testing.T) {
	for _, in := range []string{
		``, ` `, `nul`, `nullx`, `{`, `[`, `{"a":1`, `[{"a":1}`, `{"a":1}x`, `{"a":1},`,
		`{"a":1,}`, `{,"a":1}`, `{"a" 1}`, `{"a":1 "c":true}`, `[,]`, `[{"a":1},]`,
		`[{"a":1}{"a":2}]`, `{"a":01}`, `{"a":-}`, `{"a":1.0}`, `{"a":1e3}`, `{"a":+1}`,
		`{"a":9223372036854775808}`, `{"a":-9223372036854775809}`, `{"a":00}`,
		`{"e":9223372036854775808}`, `{"b":.5}`, `{"b":1.}`, `{"b":1e}`, `{"b":1e+}`,
		`{"b":-.5}`, `{"b":1e400}`, `{"b":"1"}`, `{"c":tru}`, `{"c":1}`, `{"c":null}`,
		`{"d":"\u0041"}`, `{"d":"\n"}`, "{\"d\":\"\xc3\xa9\"}", "{\"d\":\"\x01\"}", `{"d":5}`,
		`{"a":{}}`, `{"a":[1]}`, `{"A":1}`, `{"x":1}`, `{"a":null}`,
		`[null]`, `[1]`, `[[]]`, `{"a":1}{"a":1}`, "\xef\xbb\xbf{}",
		// Keys are read raw: an escaped, quoted, non-ASCII, control or
		// case-folded key never matches a field name, so it falls back.
		`{"\u0061":1}`, `{"batch\u0065s":1}`, `{"a\"b":1}`, `[{"a\"":1}]`, `[{"batchId\"":1}]`,
		`{"a\\":1}`, `{"a\/":1}`, "{\"\xc3\xa9\":1}", "{\"a\xc3\xa9\":1}", "{\"a\x01\":1}",
		"{\"\x7f\":1}", `{"B":1.5}`, `{"a`, `{"a:1}`, `{"":1}`,
	} {
		s := NewScanner([]byte(in))
		m := scanMember(&s)
		if s.Done() {
			t.Errorf("scanner accepted %q as %+v", in, m)
		}
		if ms, ok := scanMembers([]byte(in)); ok {
			t.Errorf("scanner accepted %q as %+v", in, ms)
		}
	}
	for _, in := range []string{
		`{}`, ` { } `, "\t{\r\n\"a\" :\t-0 , \"b\":-0.0,\"c\":false}\n", `{"b":1E+2}`,
		`{"b":-1.5e-7,"a":-9223372036854775808}`, `{"a":1,"a":2}`, `{"d":""}`,
	} {
		s := NewScanner([]byte(in))
		m := scanMember(&s)
		if !s.Done() {
			t.Errorf("scanner refused canonical %q", in)
			continue
		}
		var want member
		if err := json.Unmarshal([]byte(in), &want); err != nil || !reflect.DeepEqual(m, want) {
			t.Errorf("%q: scanner %+v, json %+v (%v)", in, m, want, err)
		}
	}
}

// TestScannerMatch: Match consumes exact bytes and nothing on a mismatch,
// without failing the scan, and Offset brackets an element's bytes.
func TestScannerMatch(t *testing.T) {
	data := []byte(`[ {"a":1}, {"a":2} ]`)
	s := NewScanner(data)
	s.BeginArray()
	if !s.NextElement() || s.Offset() != 2 {
		t.Fatalf("first element at %d, want 2", s.Offset())
	}
	if s.Match([]byte(`{"a":2}`)) || s.Offset() != 2 {
		t.Fatalf("a mismatch moved the scan to %d", s.Offset())
	}
	if !s.Match([]byte(`{"a":1}`)) || s.Offset() != 9 {
		t.Fatalf("a match left the scan at %d, want 9", s.Offset())
	}
	if !s.NextElement() {
		t.Fatal("no second element")
	}
	start := s.Offset()
	if m := scanMember(&s); m.A != 2 || string(data[start:s.Offset()]) != `{"a":2}` {
		t.Fatalf("second element %+v spans %q", m, data[start:s.Offset()])
	}
	if s.NextElement() || !s.Done() {
		t.Fatal("scan did not end after two elements")
	}
	if ms, ok := scanMembers([]byte(" null ")); ms != nil || !ok {
		t.Fatalf("null scanned as %v, %v", ms, ok)
	}
}
