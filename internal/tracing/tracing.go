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
// Determinism contract (DESIGN.md §5d): timestamps are virtual (sim.Time
// microseconds, never the wall clock), events are recorded in simulation
// order on the single-threaded kernel, and args objects serialise with
// encoding/json's sorted map keys — so two same-seed runs emit
// byte-identical trace files.
package tracing

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"nostop/internal/sim"
)

// Args carries the key→value annotations attached to an event. Values must
// be JSON-serialisable; encoding/json renders map keys in sorted order, so
// args never introduce nondeterminism.
type Args map[string]any

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

// Event is one trace_event record. Field order mirrors the JSON output;
// encoding/json preserves struct field order, keeping files byte-stable.
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
// Events are encoded into buf the moment they are recorded (see encode.go),
// so the record path performs no per-event allocation once the buffer has
// grown to steady state, and WriteJSON is a straight byte copy.
type Tracer struct {
	clock   *sim.Clock
	buf     []byte // pre-encoded events, joined by ",\n"
	count   int
	max     int
	dropped int
	err     error // first encode failure, surfaced by WriteJSON
}

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

// add encodes one event into the buffer, honouring the cap. An event whose
// args fail to serialise is rolled back and the error is surfaced by
// WriteJSON, matching the export-time failure of the marshal-at-write
// design.
func (t *Tracer) add(e *Event) {
	if t == nil {
		return
	}
	if t.count >= t.max {
		t.dropped++
		return
	}
	mark := len(t.buf)
	if t.count > 0 {
		t.buf = append(t.buf, ',', '\n')
	}
	var err error
	t.buf, err = appendEvent(t.buf, e)
	if err != nil {
		t.buf = t.buf[:mark]
		if t.err == nil {
			t.err = err
		}
		return
	}
	t.count++
}

// micros converts a virtual instant to trace microseconds.
func micros(ts sim.Time) int64 { return int64(ts / sim.Time(time.Microsecond)) }

// Span records a complete span [start, start+dur) on the (pid, tid) lane.
// Spans may be recorded after the fact (at completion time, when the
// duration is known); the viewer orders by ts, not record order.
//
//nostop:hotpath
func (t *Tracer) Span(pid, tid int, cat, name string, start sim.Time, dur time.Duration, args Args) {
	if t == nil {
		return
	}
	d := int64(dur / time.Microsecond)
	if d < 0 {
		d = 0
	}
	e := Event{Name: name, Cat: cat, Ph: PhaseComplete, Ts: micros(start), Dur: &d, Pid: pid, Tid: tid, Args: args}
	t.add(&e)
}

// Instant records a zero-duration marker at the current virtual time with
// thread scope.
//
//nostop:hotpath
func (t *Tracer) Instant(pid, tid int, cat, name string, args Args) {
	if t == nil {
		return
	}
	e := Event{Name: name, Cat: cat, Ph: PhaseInstant, Ts: micros(t.clock.Now()), Pid: pid, Tid: tid, S: "t", Args: args}
	t.add(&e)
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
	e := Event{Name: name, Ph: PhaseCounter, Ts: micros(t.clock.Now()), Pid: pid, Tid: 0, Args: values}
	t.add(&e)
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *Tracer) NameProcess(pid int, name string) {
	if t == nil {
		return
	}
	e := Event{Name: "process_name", Ph: PhaseMetadata, Ts: 0, Pid: pid, Tid: 0, Args: Args{"name": name}}
	t.add(&e)
}

// NameThread attaches a human-readable name to a (pid, tid) lane.
func (t *Tracer) NameThread(pid, tid int, name string) {
	if t == nil {
		return
	}
	e := Event{Name: "thread_name", Ph: PhaseMetadata, Ts: 0, Pid: pid, Tid: tid, Args: Args{"name": name}}
	t.add(&e)
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

// WriteJSON renders the trace as a Chrome trace_event JSON object
// ({"traceEvents": [...]}) in recorded order. The output is byte-identical
// across same-seed runs.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t != nil && t.err != nil {
		return t.err
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"); err != nil {
		return err
	}
	if t != nil {
		if _, err := bw.Write(t.buf); err != nil {
			return err
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
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
