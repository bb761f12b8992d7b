// Event encoding for the tracer hot path.
//
// Events are serialised the moment they are recorded, into the tracer's
// chunks, instead of being retained as Event structs and json.Marshal'ed
// at export time. One function writes every event's header; its args come
// from a typed list, written in the caller's order once that order is
// checked, or from an Args map, whose pairs are collected in one pass and
// sorted on the stack.
//
// The encoder MUST stay byte-identical to encoding/json on the Event struct:
// the golden trace artifacts and the determinism contract both pin exact
// bytes. TestEncodeMatchesEncodingJSON cross-checks the two encoders on
// randomized events; map values this file cannot provably format the same
// way (float32, slices, nested maps) are delegated to json.Marshal.
package tracing

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"

	"nostop/internal/jsonwire"
)

// header is an event's fields ahead of its args.
type header struct {
	name     string
	id       int64 // written in decimal after name unless negative (NoID)
	cat, ph  string
	ts, dur  int64
	hasDur   bool
	pid, tid int
	s        string
}

// appendEvent appends the JSON encoding of one event, matching
// json.Marshal of the equivalent Event byte for byte (field order,
// omitempty semantics, sorted args keys, HTML escaping). Its args are list
// when that is non-empty, else m.
func appendEvent(buf []byte, h *header, list []Arg, m Args) ([]byte, error) {
	buf = appendHeader(buf, h)
	var err error
	switch {
	case len(list) > 0:
		buf = append(buf, `,"args":`...)
		buf, err = appendList(buf, list)
	case len(m) > 0:
		buf = append(buf, `,"args":`...)
		buf, err = appendArgs(buf, m)
	}
	if err != nil {
		return buf, err
	}
	return append(buf, '}'), nil
}

// appendHeader appends an event's opening brace and its fields from name
// through s.
func appendHeader(buf []byte, h *header) []byte {
	buf = append(buf, `{"name":`...)
	buf = jsonwire.AppendString(buf, h.name)
	if h.id >= 0 {
		// Digits need no escaping: reopen the string to append them.
		buf = jsonwire.AppendInt(buf[:len(buf)-1], h.id)
		buf = append(buf, '"')
	}
	if h.cat != "" {
		buf = append(buf, `,"cat":`...)
		buf = jsonwire.AppendString(buf, h.cat)
	}
	buf = append(buf, `,"ph":`...)
	buf = jsonwire.AppendString(buf, h.ph)
	buf = append(buf, `,"ts":`...)
	buf = jsonwire.AppendInt(buf, h.ts)
	if h.hasDur {
		buf = append(buf, `,"dur":`...)
		buf = jsonwire.AppendInt(buf, h.dur)
	}
	buf = append(buf, `,"pid":`...)
	buf = jsonwire.AppendInt(buf, int64(h.pid))
	buf = append(buf, `,"tid":`...)
	buf = jsonwire.AppendInt(buf, int64(h.tid))
	if h.s != "" {
		buf = append(buf, `,"s":`...)
		buf = jsonwire.AppendString(buf, h.s)
	}
	return buf
}

// appendList appends a typed args object in the given order, which must
// ascend strictly by key: that is the order encoding/json writes a map in.
func appendList(buf []byte, list []Arg) ([]byte, error) {
	buf = append(buf, '{')
	for i := range list {
		a := &list[i]
		if i > 0 {
			if list[i-1].key >= a.key {
				return buf, orderError(list[i-1].key, a.key)
			}
			buf = append(buf, ',')
		}
		buf = jsonwire.AppendString(buf, a.key)
		buf = append(buf, ':')
		switch a.kind {
		case argInt:
			buf = jsonwire.AppendInt(buf, int64(a.bits))
		case argBool:
			if a.bits != 0 {
				buf = append(buf, `true`...)
			} else {
				buf = append(buf, `false`...)
			}
		case argFloat:
			var err error
			if buf, err = jsonwire.AppendFloat(buf, math.Float64frombits(a.bits)); err != nil {
				return buf, err
			}
		}
	}
	return append(buf, '}'), nil
}

// orderError reports typed args out of order or with a repeated key.
//
//nostop:allow hotalloc -- the error path only
func orderError(prev, key string) error {
	return fmt.Errorf("tracing: typed arg %q follows %q: keys must ascend strictly", key, prev)
}

// pair is one map entry of an Args object, collected for sorting.
type pair struct {
	key string
	val any
}

func comparePairs(a, b pair) int { return strings.Compare(a.key, b.key) }

// appendArgs appends an args object with keys in sorted order (matching
// encoding/json's map rendering). Up to eight pairs sort on the stack.
func appendArgs(buf []byte, args Args) ([]byte, error) {
	var stack [8]pair
	pairs := stack[:0]
	if len(args) > len(stack) {
		pairs = make([]pair, 0, len(args)) //nostop:allow hotalloc -- >8 keys only; the common case stays on the stack array
	}
	//nostop:allow hotalloc -- Args maps are tiny; pairs are sorted below for determinism
	for k, v := range args {
		pairs = append(pairs, pair{k, v}) //nostop:allow hotalloc -- bounded by the stack array in the common case
	}
	slices.SortFunc(pairs, comparePairs)
	buf = append(buf, '{')
	for i := range pairs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonwire.AppendString(buf, pairs[i].key)
		buf = append(buf, ':')
		var err error
		buf, err = appendValue(buf, pairs[i].val)
		if err != nil {
			return buf, err
		}
	}
	return append(buf, '}'), nil
}

// appendValue appends one arg value. Integer, bool, string and float64
// values — the entire steady-state vocabulary of the instrumentation call
// sites — are formatted in place; everything else (float32, slices, nested
// maps) goes through json.Marshal so the bytes provably match.
func appendValue(buf []byte, v any) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(buf, `null`...), nil
	case bool:
		if x {
			return append(buf, `true`...), nil
		}
		return append(buf, `false`...), nil
	case string:
		return jsonwire.AppendString(buf, x), nil
	case float64:
		return jsonwire.AppendFloat(buf, x)
	case int:
		return jsonwire.AppendInt(buf, int64(x)), nil
	case int8:
		return jsonwire.AppendInt(buf, int64(x)), nil
	case int16:
		return jsonwire.AppendInt(buf, int64(x)), nil
	case int32:
		return jsonwire.AppendInt(buf, int64(x)), nil
	case int64:
		return jsonwire.AppendInt(buf, x), nil
	case uint:
		return jsonwire.AppendUint(buf, uint64(x)), nil
	case uint8:
		return jsonwire.AppendUint(buf, uint64(x)), nil
	case uint16:
		return jsonwire.AppendUint(buf, uint64(x)), nil
	case uint32:
		return jsonwire.AppendUint(buf, uint64(x)), nil
	case uint64:
		return jsonwire.AppendUint(buf, x), nil
	default:
		blob, err := json.Marshal(v)
		if err != nil {
			return buf, err
		}
		return append(buf, blob...), nil
	}
}
