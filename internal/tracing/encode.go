// Event encoding for the tracer hot path.
//
// Events are serialised the moment they are recorded, into one growing byte
// buffer owned by the tracer, instead of being retained as Event structs and
// json.Marshal'ed at export time. That removes the per-event struct copy,
// the per-span *int64 escape, and the per-event Marshal allocation from the
// record path — WriteJSON becomes a straight copy of pre-encoded bytes.
//
// The encoder MUST stay byte-identical to encoding/json on the Event struct:
// the golden trace artifacts and the determinism contract both pin exact
// bytes. TestEncodeMatchesEncodingJSON cross-checks the two encoders on
// randomized events; anything this file cannot provably format the same way
// (floats, exotic arg types) is delegated to json.Marshal.
package tracing

import (
	"encoding/json"
	"sort"

	"nostop/internal/jsonwire"
)

// appendEvent appends the JSON encoding of e, matching json.Marshal(&e)
// byte-for-byte (field order, omitempty semantics, sorted args keys, HTML
// escaping).
func appendEvent(buf []byte, e *Event) ([]byte, error) {
	buf = append(buf, `{"name":`...)
	buf = jsonwire.AppendString(buf, e.Name)
	if e.Cat != "" {
		buf = append(buf, `,"cat":`...)
		buf = jsonwire.AppendString(buf, e.Cat)
	}
	buf = append(buf, `,"ph":`...)
	buf = jsonwire.AppendString(buf, e.Ph)
	buf = append(buf, `,"ts":`...)
	buf = jsonwire.AppendInt(buf, e.Ts)
	if e.Dur != nil {
		buf = append(buf, `,"dur":`...)
		buf = jsonwire.AppendInt(buf, *e.Dur)
	}
	buf = append(buf, `,"pid":`...)
	buf = jsonwire.AppendInt(buf, int64(e.Pid))
	buf = append(buf, `,"tid":`...)
	buf = jsonwire.AppendInt(buf, int64(e.Tid))
	if e.S != "" {
		buf = append(buf, `,"s":`...)
		buf = jsonwire.AppendString(buf, e.S)
	}
	if len(e.Args) > 0 {
		buf = append(buf, `,"args":`...)
		var err error
		buf, err = appendArgs(buf, e.Args)
		if err != nil {
			return buf, err
		}
	}
	return append(buf, '}'), nil
}

// appendArgs appends an args object with keys in sorted order (matching
// encoding/json's map rendering). The common case of a handful of keys sorts
// on the stack.
func appendArgs(buf []byte, args Args) ([]byte, error) {
	var stack [8]string
	keys := stack[:0]
	if len(args) > len(stack) {
		keys = make([]string, 0, len(args)) //nostop:allow hotalloc -- >8 keys only; the common case stays on the stack array
	}
	//nostop:allow hotalloc -- Args maps are tiny; keys are sorted below for determinism
	for k := range args {
		keys = append(keys, k) //nostop:allow hotalloc -- bounded by the stack array in the common case
	}
	if len(keys) > 1 {
		sort.Strings(keys)
	}
	buf = append(buf, '{')
	for i, k := range keys {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = jsonwire.AppendString(buf, k)
		buf = append(buf, ':')
		var err error
		buf, err = appendValue(buf, args[k])
		if err != nil {
			return buf, err
		}
	}
	return append(buf, '}'), nil
}

// appendValue appends one arg value. Integer, bool, and string values — the
// entire steady-state vocabulary of the instrumentation call sites — are
// formatted in place; everything else (floats, slices, nested maps) goes
// through json.Marshal so the bytes provably match.
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
