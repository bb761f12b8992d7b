// Package tracing records structured spans and events on the simulation
// clock and exports them as Chrome trace_event JSON, viewable in
// chrome://tracing, Perfetto, or any catapult-compatible viewer.
//
// The tracer covers the full record lifecycle of a run: producer→broker
// partition appends, receiver pulls, block/batch cuts, batch queue
// enter/exit, per-attempt task execution on the executor pool, SPSA
// perturbation and measurement windows, and fault-injection windows. A
// whole 2 h virtual run renders as one timeline, which is how EXPERIMENTS.md
// shape claims are audited below the per-batch aggregate.
//
// Events carry their annotations one of two ways. The typed methods
// (TypedSpan, TypedInstant, TypedCounter) take Arg values built by Int,
// Bool and Float, in strictly ascending key order, and a constant name
// prefix with an optional decimal id; they build no map and format no
// name, which is what the engine's per-batch events use. Span, Instant and
// Counter take an Args map, for the rarer events whose values are strings
// or whose names are computed.
//
// Determinism contract (DESIGN.md §5d): timestamps are virtual (sim.Time
// microseconds, never the wall clock), events are recorded in simulation
// order on the single-threaded kernel, and both kinds of args render with
// their keys sorted, as encoding/json renders a map — so two same-seed runs
// emit byte-identical trace files.
package tracing

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"time"

	"nostop/internal/sim"
)

// Args carries the key→value annotations attached to an event. Values must
// be JSON-serialisable; keys are written in sorted order, as encoding/json
// renders a map, so args never introduce nondeterminism.
type Args map[string]any

// Arg is one typed annotation for the typed recording methods: a key and
// an integer, boolean or float value. Pass a typed method's args in
// strictly ascending key order; anything else is an encode error that
// WriteJSON returns, since encoding/json writes each map key once, sorted.
type Arg struct {
	key  string
	kind argKind
	bits uint64 // the int64, 0 or 1, or the float64's bits
}

type argKind uint8

const (
	argInt argKind = iota
	argBool
	argFloat
)

// Int is an integer annotation.
func Int(key string, v int64) Arg { return Arg{key: key, kind: argInt, bits: uint64(v)} }

// Bool is a boolean annotation.
func Bool(key string, v bool) Arg {
	a := Arg{key: key, kind: argBool}
	if v {
		a.bits = 1
	}
	return a
}

// Float is a float annotation. NaN and ±Inf are not JSON: like an Args map
// holding one, they fail the event, and WriteJSON returns the error.
func Float(key string, v float64) Arg {
	return Arg{key: key, kind: argFloat, bits: math.Float64bits(v)}
}

// NoID, passed as a typed method's id, writes the name prefix alone. Any
// id of zero or more is written in decimal straight after the prefix.
const NoID int64 = -1

// Phase letters of the Chrome trace_event format used by this tracer.
const (
	// PhaseComplete is a complete span ("X"): ts + dur.
	PhaseComplete = "X"
	// PhaseInstant is an instant event ("i").
	PhaseInstant = "i"
	// PhaseCounter is a counter sample ("C") rendered as a stacked chart.
	PhaseCounter = "C"
	// PhaseMetadata is a metadata record ("M"), e.g. process/thread names.
	PhaseMetadata = "M"
)

// Event is one trace_event record as Validate reads it back. Field order
// mirrors the JSON the tracer writes, which is byte for byte what
// encoding/json writes for this struct.
type Event struct {
	// Name is the event title shown on the timeline slice.
	Name string `json:"name"`
	// Cat is the comma-free category tag used by viewer filters.
	Cat string `json:"cat,omitempty"`
	// Ph is the phase letter (one of the Phase* constants).
	Ph string `json:"ph"`
	// Ts is the event timestamp in virtual microseconds.
	Ts int64 `json:"ts"`
	// Dur is the span duration in microseconds (complete events only).
	Dur *int64 `json:"dur,omitempty"`
	// Pid is the process lane (one per simulated component).
	Pid int `json:"pid"`
	// Tid is the thread lane within the process.
	Tid int `json:"tid"`
	// S is the instant-event scope ("t" thread, "p" process, "g" global).
	S string `json:"s,omitempty"`
	// Args carries the structured annotations.
	Args Args `json:"args,omitempty"`
}

// Tracer accumulates events for one run. Not safe for concurrent use: like
// the rest of the simulator it lives on the single-threaded kernel. A nil
// *Tracer is a valid no-op sink, so instrumented code runs unconditionally.
//
// Events are encoded the moment they are recorded (see encode.go) into
// fixed-size chunks: a full chunk is kept as it is and a new one started,
// so recording never copies earlier events, and WriteJSON writes the
// chunks out in order.
type Tracer struct {
	clock   *sim.Clock
	chunks  [][]byte // full chunks, in order
	buf     []byte   // the chunk being filled; events are joined by ",\n"
	count   int
	max     int
	dropped int
	err     error // first encode failure, surfaced by WriteJSON
}

// A chunk holds chunkSize bytes. The next event starts a new chunk when
// fewer than chunkSlack bytes are free, so no event straddles two chunks;
// one longer than chunkSlack can grow its chunk past chunkSize.
const (
	chunkSize  = 16 << 10
	chunkSlack = 512
)

// DefaultMaxEvents bounds tracer memory: a 2 h virtual run at a 1 s batch
// interval emits well under a million events, so the cap only engages on
// runaway instrumentation.
const DefaultMaxEvents = 4 << 20

// New returns a tracer stamping events from the given clock. maxEvents
// bounds retained events (0 means DefaultMaxEvents); past the cap new
// events are counted as dropped rather than recorded, keeping the file
// deterministic instead of silently resizing.
func New(clock *sim.Clock, maxEvents int) *Tracer {
	if maxEvents <= 0 {
		maxEvents = DefaultMaxEvents
	}
	return &Tracer{clock: clock, max: maxEvents}
}

// add encodes one event, with its args from either list or map, honouring
// the cap. An event that fails to encode is rolled back — it sits whole in
// the current chunk, so that truncates one slice — and the error is
// surfaced by WriteJSON.
func (t *Tracer) add(h *header, list []Arg, m Args) {
	if t.count >= t.max {
		t.dropped++
		return
	}
	if cap(t.buf)-len(t.buf) < chunkSlack {
		t.newChunk()
	}
	mark := len(t.buf)
	if t.count > 0 {
		t.buf = append(t.buf, ',', '\n')
	}
	var err error
	t.buf, err = appendEvent(t.buf, h, list, m)
	if err != nil {
		t.buf = t.buf[:mark]
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.count++
}

// newChunk keeps the current chunk, if it holds anything, and starts an
// empty one.
func (t *Tracer) newChunk() {
	if len(t.buf) > 0 {
		t.chunks = append(t.chunks, t.buf)
	}
	t.buf = make([]byte, 0, chunkSize) //nostop:allow hotalloc -- one chunk per 16 KB of trace, never copied once filled
}

// micros converts a virtual instant to trace microseconds.
func micros(ts sim.Time) int64 { return int64(ts / sim.Time(time.Microsecond)) }

// span records a complete span, clamping a negative duration to zero.
func (t *Tracer) span(pid, tid int, cat, name string, id int64, start sim.Time, dur time.Duration, list []Arg, m Args) {
	d := int64(dur / time.Microsecond)
	if d < 0 {
		d = 0
	}
	ts := micros(start)
	h := header{name: name, id: id, cat: cat, ph: PhaseComplete, ts: ts, dur: d, hasDur: true, pid: pid, tid: tid}
	t.add(&h, list, m)
}

// instant records a thread-scoped marker at the current virtual time.
func (t *Tracer) instant(pid, tid int, cat, name string, id int64, list []Arg, m Args) {
	ts := micros(t.clock.Now())
	h := header{name: name, id: id, cat: cat, ph: PhaseInstant, ts: ts, pid: pid, tid: tid, s: "t"}
	t.add(&h, list, m)
}

// counter records a counter sample at the current virtual time.
func (t *Tracer) counter(pid int, name string, list []Arg, m Args) {
	ts := micros(t.clock.Now())
	h := header{name: name, id: NoID, ph: PhaseCounter, ts: ts, pid: pid}
	t.add(&h, list, m)
}

// Span records a complete span [start, start+dur) on the (pid, tid) lane.
// Spans may be recorded after the fact (at completion time, when the
// duration is known); the viewer orders by ts, not record order.
//
//nostop:hotpath
func (t *Tracer) Span(pid, tid int, cat, name string, start sim.Time, dur time.Duration, args Args) {
	if t == nil {
		return
	}
	t.span(pid, tid, cat, name, NoID, start, dur, nil, args)
}

// TypedSpan is Span with typed args, named by prefix and id (see NoID).
//
//nostop:hotpath
func (t *Tracer) TypedSpan(pid, tid int, cat, prefix string, id int64, start sim.Time, dur time.Duration, args ...Arg) {
	if t == nil {
		return
	}
	t.span(pid, tid, cat, prefix, id, start, dur, args, nil)
}

// Instant records a zero-duration marker at the current virtual time with
// thread scope.
//
//nostop:hotpath
func (t *Tracer) Instant(pid, tid int, cat, name string, args Args) {
	if t == nil {
		return
	}
	t.instant(pid, tid, cat, name, NoID, nil, args)
}

// TypedInstant is Instant with typed args, named by prefix and id (see
// NoID).
//
//nostop:hotpath
func (t *Tracer) TypedInstant(pid, tid int, cat, prefix string, id int64, args ...Arg) {
	if t == nil {
		return
	}
	t.instant(pid, tid, cat, prefix, id, args, nil)
}

// Counter records a counter sample at the current virtual time; the viewer
// renders each named series as a stacked area chart. Values must be
// numeric.
//
//nostop:hotpath
func (t *Tracer) Counter(pid int, name string, values Args) {
	if t == nil {
		return
	}
	t.counter(pid, name, nil, values)
}

// TypedCounter is Counter with typed values. It takes no id: a counter's
// name is its series, which must not grow with the run.
//
//nostop:hotpath
func (t *Tracer) TypedCounter(pid int, name string, values ...Arg) {
	if t == nil {
		return
	}
	t.counter(pid, name, values, nil)
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	h := header{name: "process_name", id: NoID, ph: PhaseMetadata, pid: pid}
	t.add(&h, nil, Args{"name": name})
}

// NameThread attaches a human-readable name to a (pid, tid) lane.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	h := header{name: "thread_name", id: NoID, ph: PhaseMetadata, pid: pid, tid: tid}
	t.add(&h, nil, Args{"name": name})
}

// Len returns the number of recorded events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return t.count
}

// Dropped returns how many events the cap rejected.
func (t *Tracer) Dropped() int {
	if t == nil {
		return 0
	}
	return t.dropped
}

// The trace file around its events.
const (
	traceHead = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
	traceTail = "\n]}\n"
)

// WriteJSON renders the trace as a Chrome trace_event JSON object
// ({"traceEvents": [...]}) in recorded order: the head, each chunk, then
// the tail, one Write each. A destination with a Grow(int) method, such
// as a bytes.Buffer or strings.Builder, is grown once by the exact size
// first. The output is byte-identical across same-seed runs.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, traceHead+traceTail)
		return err
	}
	if t.err != nil {
		return t.err
	}
	if g, ok := w.(interface{ Grow(int) }); ok {
		n := len(traceHead) + len(t.buf) + len(traceTail)
		for _, c := range t.chunks {
			n += len(c)
		}
		g.Grow(n)
	}
	if _, err := io.WriteString(w, traceHead); err != nil {
		return err
	}
	for _, c := range t.chunks {
		if _, err := w.Write(c); err != nil {
			return err
		}
	}
	if len(t.buf) > 0 {
		if _, err := w.Write(t.buf); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, traceTail)
	return err
}

// Validate checks a serialized trace against the Chrome trace_event schema
// shape this package emits: a traceEvents array whose entries carry a
// non-empty name, a known phase letter, a non-negative timestamp, and — for
// complete events — a non-negative duration. It returns the event count.
// This is what `make trace` runs in CI against a fresh simulation trace.
func Validate(r io.Reader) (int, error) {
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return 0, fmt.Errorf("tracing: not a JSON trace object: %w", err)
	}
	if doc.TraceEvents == nil {
		return 0, fmt.Errorf("tracing: missing traceEvents array")
	}
	for i, raw := range doc.TraceEvents {
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return 0, fmt.Errorf("tracing: event %d malformed: %w", i, err)
		}
		if e.Name == "" {
			return 0, fmt.Errorf("tracing: event %d has no name", i)
		}
		switch e.Ph {
		case PhaseComplete:
			if e.Dur == nil || *e.Dur < 0 {
				return 0, fmt.Errorf("tracing: complete event %d (%s) lacks a non-negative dur", i, e.Name)
			}
		case PhaseInstant, PhaseCounter, PhaseMetadata:
		default:
			return 0, fmt.Errorf("tracing: event %d (%s) has unknown phase %q", i, e.Name, e.Ph)
		}
		if e.Ts < 0 {
			return 0, fmt.Errorf("tracing: event %d (%s) has negative ts", i, e.Name)
		}
	}
	return len(doc.TraceEvents), nil
}
