package tracing

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"

	"nostop/internal/rng"
)

// headerOf is the header the map path builds for e.
func headerOf(e *Event) header {
	h := header{name: e.Name, id: NoID, cat: e.Cat, ph: e.Ph, ts: e.Ts, pid: e.Pid, tid: e.Tid, s: e.S}
	if e.Dur != nil {
		h.dur, h.hasDur = *e.Dur, true
	}
	return h
}

// encodeOne runs the hand-rolled encoder on a single event.
func encodeOne(t *testing.T, e *Event) string {
	t.Helper()
	h := headerOf(e)
	buf, err := appendEvent(nil, &h, nil, e.Args)
	if err != nil {
		t.Fatalf("appendEvent: %v", err)
	}
	return string(buf)
}

// marshalOne is the reference encoding the golden traces were produced with.
func marshalOne(t *testing.T, e *Event) string {
	t.Helper()
	blob, err := json.Marshal(e)
	if err != nil {
		t.Fatalf("json.Marshal: %v", err)
	}
	return string(blob)
}

// TestEncodeMatchesEncodingJSONFixed pins the encoder on the hand-picked
// hard cases: HTML escapes, control characters, shorthand escapes, U+2028/9
// line separators, invalid UTF-8, negative and extreme integers, floats,
// omitempty boundaries.
func TestEncodeMatchesEncodingJSONFixed(t *testing.T) {
	dur := int64(12345)
	zero := int64(0)
	cases := []Event{
		{Name: "plain", Ph: "i", Ts: 0, Pid: 1, Tid: 2},
		{Name: "cat set", Cat: "engine", Ph: "X", Ts: 42, Dur: &dur, Pid: 1, Tid: 1},
		{Name: "zero dur", Ph: "X", Ts: 42, Dur: &zero, Pid: 1, Tid: 1},
		{Name: "scope", Ph: "i", Ts: 1, Pid: 1, Tid: 1, S: "t"},
		{Name: "html <&> \"quoted\" back\\slash", Ph: "i", Ts: 1, Pid: 1, Tid: 1},
		{Name: "ctrl \x00\x01\x08\x0c\x1f tab\t nl\n cr\r", Ph: "i", Ts: 1, Pid: 1, Tid: 1},
		{Name: "unicode é 漢字 emoji 🎉", Ph: "i", Ts: 1, Pid: 1, Tid: 1},
		{Name: "line seps \u2028 and \u2029", Ph: "i", Ts: 1, Pid: 1, Tid: 1},
		{Name: "bad utf8 \xff\xfe tail", Ph: "i", Ts: 1, Pid: 1, Tid: 1},
		{Name: "negatives", Ph: "i", Ts: -987654321, Pid: -3, Tid: -4},
		{Name: "args", Ph: "i", Ts: 1, Pid: 1, Tid: 1, Args: Args{
			"records": int64(9223372036854775807), "queue": 0, "faulty": true,
			"rate": 1234.5678, "tiny": 1e-9, "big": 1e21, "neg": -0.25,
			"label": "a<b>c&d", "nil": nil, "u": uint64(18446744073709551615),
			"negzero": math.Copysign(0, -1), "edge": 1e-6, "below": 9.99e-7,
			"f32": float32(0.1), "list": []int{1, 2},
		}},
		{Name: "one arg", Ph: "C", Ts: 1, Pid: 1, Tid: 0, Args: Args{"batches": 3}},
		{Name: "many args", Ph: "i", Ts: 1, Pid: 1, Tid: 1, Args: Args{
			"a": 1, "b": 2, "c": 3, "d": 4, "e": 5, "f": 6, "g": 7, "h": 8, "i": 9, "j": 10,
		}},
	}
	for _, e := range cases {
		e := e
		got, want := encodeOne(t, &e), marshalOne(t, &e)
		if got != want {
			t.Errorf("event %q:\n got  %s\n want %s", e.Name, got, want)
		}
	}
}

// TestEncodeMatchesEncodingJSONRandom drives both encoders with seeded
// random events — names sampled from a byte alphabet rich in escape-relevant
// characters, arg values across every type the instrumentation emits — and
// requires byte equality on all of them.
func TestEncodeMatchesEncodingJSONRandom(t *testing.T) {
	r := rng.New(1234).Split("encode-equivalence").Rand()
	alphabet := []rune{'a', 'z', '"', '\\', '<', '>', '&', '\n', '\t', '\x00', '\x1f',
		'é', '漢', '\u2028', '\u2029', '\ufffd', '🎉', ' '}
	randString := func() string {
		n := r.Intn(12)
		out := make([]rune, 0, n+1)
		for i := 0; i < n; i++ {
			out = append(out, alphabet[r.Intn(len(alphabet))])
		}
		s := string(out)
		if r.Intn(4) == 0 {
			s += string([]byte{0xff}) // invalid UTF-8 tail
		}
		return s
	}
	randValue := func() any {
		switch r.Intn(7) {
		case 0:
			return r.Int63() - r.Int63()
		case 1:
			return int(r.Intn(1000) - 500)
		case 2:
			return r.Float64() * 1e6
		case 3:
			return r.Intn(2) == 0
		case 4:
			return randString()
		case 5:
			return uint64(r.Int63())
		default:
			return nil
		}
	}
	phases := []string{PhaseComplete, PhaseInstant, PhaseCounter, PhaseMetadata}
	for i := 0; i < 2000; i++ {
		e := Event{
			Name: randString(),
			Ph:   phases[r.Intn(len(phases))],
			Ts:   r.Int63() - r.Int63(),
			Pid:  r.Intn(10),
			Tid:  r.Intn(10),
		}
		if r.Intn(2) == 0 {
			e.Cat = randString()
		}
		if r.Intn(2) == 0 {
			d := r.Int63()
			e.Dur = &d
		}
		if r.Intn(2) == 0 {
			e.S = "t"
		}
		if n := r.Intn(6); n > 0 {
			e.Args = Args{}
			for j := 0; j < n; j++ {
				e.Args[fmt.Sprintf("k%d-%s", j, randString())] = randValue()
			}
		}
		got, want := encodeOne(t, &e), marshalOne(t, &e)
		if got != want {
			t.Fatalf("iteration %d diverged:\n got  %s\n want %s", i, got, want)
		}

		// The same header on the typed path, with or without an id.
		h := headerOf(&e)
		if r.Intn(2) == 0 {
			h.id = randID(r.Int63())
		}
		var list []Arg
		for n := r.Intn(6); n > 0; n-- {
			list = append(list, randArg(r.Int63(), randString()))
		}
		slices.SortFunc(list, func(a, b Arg) int { return strings.Compare(a.key, b.key) })
		list = slices.CompactFunc(list, func(a, b Arg) bool { return a.key == b.key })
		typed := typedEvent(h, list)
		got, want = encodeTyped(t, h, list), marshalOne(t, &typed)
		if got != want {
			t.Fatalf("iteration %d, typed, diverged:\n got  %s\n want %s", i, got, want)
		}
		if len(list) < 2 {
			continue
		}
		// Out of order, or a key twice: an error, never unsorted JSON.
		bad := slices.Clone(list)
		j := r.Intn(len(bad) - 1)
		if r.Intn(2) == 0 {
			bad[j], bad[j+1] = bad[j+1], bad[j]
		} else {
			bad[j+1].key = bad[j].key
		}
		if out, err := appendEvent(nil, &h, bad, nil); err == nil {
			t.Fatalf("iteration %d: keys %q encoded without error: %s", i, argKeys(bad), out)
		}
	}
}

// randID is a random id for a typed event, NoID a quarter of the time.
func randID(x int64) int64 {
	switch x % 4 {
	case 0:
		return NoID
	case 1:
		return 0
	case 2:
		return math.MaxInt64
	}
	return x
}

// randArg is a typed arg whose value x picks: an int64 at or near the
// extremes, a bool, or a float on either side of encoding/json's switches
// between 'f' and 'e' form.
func randArg(x int64, key string) Arg {
	switch x % 10 {
	case 0:
		return Int(key, math.MinInt64)
	case 1:
		return Int(key, math.MaxInt64)
	case 2:
		return Int(key, -x)
	case 3:
		return Int(key, x)
	case 4:
		return Bool(key, x%20 < 10)
	case 5:
		return Float(key, math.Copysign(0, -1))
	case 6:
		return Float(key, 1e21*float64(x%3-1))
	case 7:
		return Float(key, 1e-6*float64(x%3-1))
	case 8:
		return Float(key, float64(x)/7)
	}
	return Float(key, math.Float64frombits(uint64(x)>>2))
}

// typedEvent is the Event a typed event must encode as: its name with the
// id written after it, and its args as a map.
func typedEvent(h header, list []Arg) Event {
	e := Event{Name: h.name, Cat: h.cat, Ph: h.ph, Ts: h.ts, Pid: h.pid, Tid: h.tid, S: h.s}
	if h.id >= 0 {
		e.Name += strconv.FormatInt(h.id, 10)
	}
	if h.hasDur {
		d := h.dur
		e.Dur = &d
	}
	if len(list) > 0 {
		e.Args = Args{}
		for _, a := range list {
			switch a.kind {
			case argInt:
				e.Args[a.key] = int64(a.bits)
			case argBool:
				e.Args[a.key] = a.bits != 0
			case argFloat:
				e.Args[a.key] = math.Float64frombits(a.bits)
			}
		}
	}
	return e
}

// encodeTyped runs the encoder on a typed event.
func encodeTyped(t *testing.T, h header, list []Arg) string {
	t.Helper()
	buf, err := appendEvent(nil, &h, list, nil)
	if err != nil {
		t.Fatalf("appendEvent: %v", err)
	}
	return string(buf)
}

func argKeys(list []Arg) []string {
	keys := make([]string, len(list))
	for i, a := range list {
		keys[i] = a.key
	}
	return keys
}

// TestEncodeTypedMatchesEncodingJSONFixed pins the typed path on the
// engine's own events and the value edges.
func TestEncodeTypedMatchesEncodingJSONFixed(t *testing.T) {
	cases := []struct {
		h    header
		list []Arg
	}{
		{header{name: "cut batch ", id: 0, cat: "engine", ph: PhaseInstant, ts: 5, pid: 2, tid: 1, s: "t"},
			[]Arg{Bool("faulty", false), Int("queue", 1), Int("records", 120000)}},
		{header{name: "batch ", id: 12345, cat: "engine", ph: PhaseComplete, ts: 9, dur: 800000, hasDur: true, pid: 2, tid: 2},
			[]Arg{Int("attempt", 1), Bool("failed", true), Int("records", 0), Int("tasks", 25)}},
		{header{name: "queue", id: NoID, ph: PhaseCounter, ts: 7, pid: 2}, []Arg{Int("batches", 3)}},
		{header{name: "speculate batch ", id: 4, cat: "engine", ph: PhaseInstant, pid: 2, tid: 2, s: "t"}, nil},
		{header{name: "load-shed", id: NoID, cat: "engine", ph: PhaseInstant, pid: 2, tid: 1, s: "t"},
			[]Arg{Float("cap_rate", 1234.5678), Float("until_s", 60)}},
		{header{name: "edges <&>", id: math.MaxInt64, ph: PhaseInstant},
			[]Arg{Int("a", math.MinInt64), Int("b", math.MaxInt64), Float("c", 1e21), Float("d", 1e-7),
				Float("e", 0), Float("f", math.Copysign(0, -1)), Bool("g", true), Int("h<>", -1)}},
	}
	for _, tc := range cases {
		e := typedEvent(tc.h, tc.list)
		if got, want := encodeTyped(t, tc.h, tc.list), marshalOne(t, &e); got != want {
			t.Errorf("event %q:\n got  %s\n want %s", e.Name, got, want)
		}
	}
}

// TestEncodeUnsupportedFloat checks NaN and ±Inf fail an event on both
// paths with the error json.Marshal returns for them.
func TestEncodeUnsupportedFloat(t *testing.T) {
	h := header{name: "x", id: NoID, ph: PhaseInstant}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(Args{"v": v})
		var uve *json.UnsupportedValueError
		if !errors.As(want, &uve) {
			t.Fatalf("json.Marshal(%v) = %v, want an UnsupportedValueError", v, want)
		}
		_, typedErr := appendEvent(nil, &h, []Arg{Float("v", v)}, nil)
		_, mapErr := appendEvent(nil, &h, nil, Args{"v": v})
		for i, err := range []error{typedErr, mapErr} {
			if !errors.As(err, &uve) || err.Error() != want.Error() {
				t.Errorf("%s path, %v: error %v, want %v", []string{"typed", "map"}[i], v, err, want)
			}
		}
	}
}
