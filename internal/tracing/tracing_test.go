package tracing

import (
	"bytes"
	"errors"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"nostop/internal/sim"
)

// buildTrace records one event of each phase on a fresh clock.
func buildTrace(maxEvents int) *Tracer {
	clock := sim.NewClock()
	tr := New(clock, maxEvents)
	tr.NameProcess(1, "engine")
	tr.NameThread(1, 2, "executors")
	clock.At(5*sim.Time(time.Second), func() {
		tr.Instant(1, 2, "engine", "cut batch 0", Args{"records": 100})
		tr.Counter(1, "queue", Args{"batches": 1})
		tr.Span(1, 2, "engine", "batch 0", clock.Now(), 2*time.Second, Args{"attempt": 1})
	})
	clock.RunUntil(10 * sim.Time(time.Second))
	return tr
}

// TestWriteJSONValidates checks the emitted file parses as a Chrome
// trace_event object and round-trips through Validate with the right count.
func TestWriteJSONValidates(t *testing.T) {
	tr := buildTrace(0)
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	n, err := Validate(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("Validate: %v\ntrace:\n%s", err, buf.String())
	}
	if n != tr.Len() {
		t.Errorf("Validate counted %d events, tracer recorded %d", n, tr.Len())
	}
	out := buf.String()
	for _, want := range []string{
		`"displayTimeUnit":"ms"`,
		`"name":"cut batch 0"`,
		`"ph":"X"`,
		`"ts":5000000`, // 5 s in µs
		`"dur":2000000`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("trace missing %q:\n%s", want, out)
		}
	}
}

// TestWriteJSONByteIdentical checks that two identical recordings serialize
// byte for byte — the trace half of the determinism contract.
func TestWriteJSONByteIdentical(t *testing.T) {
	var a, b strings.Builder
	if err := buildTrace(0).WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := buildTrace(0).WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("same recordings serialized differently:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestEventCap checks the cap counts drops instead of growing the buffer.
func TestEventCap(t *testing.T) {
	tr := buildTrace(3)
	if tr.Len() != 3 {
		t.Errorf("Len() = %d, want 3 (capped)", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Errorf("Dropped() = %d, want 2", tr.Dropped())
	}
}

// TestNegativeDurationClamped checks an out-of-order span cannot emit a
// negative duration (which viewers reject).
func TestNegativeDurationClamped(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 0)
	tr.Span(1, 1, "c", "s", 0, -time.Second, nil)
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(strings.NewReader(buf.String())); err != nil {
		t.Errorf("clamped span failed validation: %v", err)
	}
	if !strings.Contains(buf.String(), `"dur":0`) {
		t.Errorf("negative duration not clamped to 0:\n%s", buf.String())
	}
}

// TestNilTracerIsNoop checks the nil-sink contract instrumented code relies
// on.
func TestNilTracerIsNoop(t *testing.T) {
	var tr *Tracer
	tr.Span(1, 1, "c", "s", 0, time.Second, nil)
	tr.Instant(1, 1, "c", "i", nil)
	tr.Counter(1, "n", nil)
	tr.NameProcess(1, "p")
	tr.NameThread(1, 1, "t")
	if tr.Len() != 0 || tr.Dropped() != 0 {
		t.Error("nil tracer accumulated state")
	}
	var buf strings.Builder
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Validate(strings.NewReader(buf.String())); err != nil {
		t.Errorf("nil tracer's empty file failed validation: %v", err)
	}
}

// TestValidateRejectsMalformed pins the checks `make trace` relies on.
func TestValidateRejectsMalformed(t *testing.T) {
	for name, doc := range map[string]string{
		"not json":       "nonsense",
		"no traceEvents": `{"other": []}`,
		"unnamed event":  `{"traceEvents":[{"name":"","ph":"i","ts":0,"pid":1,"tid":1}]}`,
		"unknown phase":  `{"traceEvents":[{"name":"x","ph":"Q","ts":0,"pid":1,"tid":1}]}`,
		"negative ts":    `{"traceEvents":[{"name":"x","ph":"i","ts":-1,"pid":1,"tid":1}]}`,
		"X without dur":  `{"traceEvents":[{"name":"x","ph":"X","ts":0,"pid":1,"tid":1}]}`,
	} {
		if _, err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: Validate accepted %s", name, doc)
		}
	}
}

// recordBatch records one batch's engine events on tr: the fetch, the cut
// with its queue and lag counters, the attempt and queue-wait spans, and
// the completion's counters. It is what BenchmarkTracerBatch times.
func recordBatch(tr *Tracer, id int64) {
	tr.TypedInstant(1, 1, "broker", "fetch", NoID, Int("ranges", 48), Int("records", id*1000))
	tr.TypedInstant(2, 1, "engine", "cut batch ", id, Bool("faulty", false), Int("queue", 1), Int("records", id*1000))
	tr.TypedCounter(2, "queue", Int("batches", 1))
	tr.TypedCounter(2, "lag", Int("records", id*10))
	tr.TypedSpan(2, 2, "engine", "batch ", id, sim.Time(id)*sim.Time(time.Second), 800*time.Millisecond,
		Int("attempt", 1), Bool("failed", false), Int("records", id*1000), Int("tasks", 25))
	tr.TypedSpan(2, 1, "engine", "queued batch ", id, sim.Time(id)*sim.Time(time.Second), 200*time.Millisecond,
		Int("records", id*1000))
	tr.TypedCounter(2, "queue", Int("batches", 0))
	tr.TypedCounter(2, "lag", Int("records", id*10))
}

// contents is every byte the tracer holds, chunk after chunk.
func contents(tr *Tracer) string {
	var b strings.Builder
	for _, c := range tr.chunks {
		b.Write(c)
	}
	b.Write(tr.buf)
	return b.String()
}

// encodedBackToBack is what a tracer must hold after recording the given
// events one after another.
func encodedBackToBack(t *testing.T, events []Event) string {
	t.Helper()
	var b strings.Builder
	for i := range events {
		if i > 0 {
			b.WriteString(",\n")
		}
		b.WriteString(marshalOne(t, &events[i]))
	}
	return b.String()
}

// TestChunksHoldEventsBackToBack fills a tracer past several chunks with
// events of both kinds and many sizes, and checks that it writes exactly
// the events' encodings back to back, that no chunk was grown past its
// size, and that WriteJSON makes one Write per chunk.
func TestChunksHoldEventsBackToBack(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 0)
	var want []Event
	for i := int64(0); len(tr.chunks) < 4; i++ {
		if i == 10000 {
			t.Fatalf("10000 events filled %d chunks", len(tr.chunks))
		}
		name := strings.Repeat("x", int(i%97))
		if i%3 == 0 {
			tr.Instant(3, 1, "spsa", name, Args{"k": name, "i": i})
			want = append(want, Event{Name: name, Cat: "spsa", Ph: PhaseInstant, Pid: 3, Tid: 1, S: "t", Args: Args{"k": name, "i": i}})
			continue
		}
		tr.TypedInstant(2, 1, "engine", name, i, Int("records", i), Bool("z", true))
		want = append(want, Event{Name: name + strconv.FormatInt(i, 10), Cat: "engine", Ph: PhaseInstant, Pid: 2, Tid: 1, S: "t",
			Args: Args{"records": i, "z": true}})
	}
	if got, w := contents(tr), encodedBackToBack(t, want); got != w {
		t.Fatalf("%d chunks hold %d bytes that differ from the %d events encoded back to back (%d bytes)",
			len(tr.chunks)+1, len(got), len(want), len(w))
	}
	for i, c := range tr.chunks {
		if cap(c) != chunkSize || len(c) <= chunkSize-chunkSlack {
			t.Errorf("chunk %d: len %d cap %d, want a full chunk of %d", i, len(c), cap(c), chunkSize)
		}
	}
	var w writeCounter
	if err := tr.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	if w.s.String() != traceHead+encodedBackToBack(t, want)+traceTail {
		t.Error("WriteJSON wrote other bytes than the head, the events and the tail")
	}
	if w.writes != len(tr.chunks)+3 {
		t.Errorf("WriteJSON made %d writes, want %d: the head, %d chunks and the tail", w.writes, len(tr.chunks)+3, len(tr.chunks)+1)
	}
}

// TestEncodeErrorAtChunkBoundary fails an event just as it starts a new
// chunk: the bytes roll back to the events before it, it counts neither
// toward the cap nor as dropped, and WriteJSON returns its error.
func TestEncodeErrorAtChunkBoundary(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 0)
	var want []Event
	for len(tr.chunks) == 0 || cap(tr.buf)-len(tr.buf) >= chunkSlack {
		if len(want) == 10000 {
			t.Fatalf("10000 events filled %d chunks", len(tr.chunks))
		}
		id := int64(len(want))
		tr.TypedInstant(2, 1, "engine", "cut batch ", id, Int("records", id))
		want = append(want, Event{Name: "cut batch " + strconv.FormatInt(id, 10), Cat: "engine", Ph: PhaseInstant,
			Pid: 2, Tid: 1, S: "t", Args: Args{"records": id}})
	}
	// The next event starts a chunk; make it fail there, twice, once per
	// path.
	tr.max = len(want) + 1
	chunks := len(tr.chunks)
	tr.TypedInstant(2, 1, "engine", "bad", NoID, Int("z", 1), Int("a", 2))
	tr.Instant(2, 1, "engine", "bad", Args{"nan": math.NaN()})
	if len(tr.chunks) != chunks+1 || len(tr.buf) != 0 {
		t.Fatalf("after the failed events: %d chunks and %d bytes in the new one, want %d and 0", len(tr.chunks), len(tr.buf), chunks+1)
	}
	if tr.Len() != len(want) || tr.Dropped() != 0 {
		t.Fatalf("Len %d Dropped %d, want %d and 0", tr.Len(), tr.Dropped(), len(want))
	}
	if got := contents(tr); got != encodedBackToBack(t, want) {
		t.Fatal("a failed event left bytes behind")
	}
	// The cap still has one slot, and the next event joins the others.
	tr.TypedCounter(2, "queue", Int("batches", 1))
	tr.TypedCounter(2, "queue", Int("batches", 2))
	want = append(want, Event{Name: "queue", Ph: PhaseCounter, Pid: 2, Args: Args{"batches": int64(1)}})
	if tr.Len() != len(want) || tr.Dropped() != 1 {
		t.Fatalf("Len %d Dropped %d, want %d and 1", tr.Len(), tr.Dropped(), len(want))
	}
	if got := contents(tr); got != encodedBackToBack(t, want) {
		t.Fatal("events after a failed one do not follow on")
	}
	err := tr.WriteJSON(io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"a" follows "z"`) {
		t.Errorf("WriteJSON: %v, want the first failure's error", err)
	}
}

// writeCounter is an io.Writer without Grow that counts its writes.
type writeCounter struct {
	s      strings.Builder
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.s.Write(p)
}

// growRecorder is a bytes.Buffer that records its Grow calls.
type growRecorder struct {
	bytes.Buffer
	grows []int
}

func (g *growRecorder) Grow(n int) {
	g.grows = append(g.grows, n)
	g.Buffer.Grow(n)
}

// failAfter fails every write after the first n.
type failAfter struct{ n int }

var errWrite = errors.New("write failed")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.n == 0 {
		return 0, errWrite
	}
	w.n--
	return len(p), nil
}

// TestWriteJSONDestinations writes one multi-chunk trace to a
// bytes.Buffer, to a writer with Grow, to one without, and to writers that
// fail at each write, and a nil tracer's empty trace.
func TestWriteJSONDestinations(t *testing.T) {
	clock := sim.NewClock()
	tr := New(clock, 0)
	for id := int64(0); len(tr.chunks) < 2; id++ {
		if id == 1000 {
			t.Fatalf("1000 batches filled %d chunks", len(tr.chunks))
		}
		recordBatch(tr, id)
	}
	var plain writeCounter
	if err := tr.WriteJSON(&plain); err != nil {
		t.Fatal(err)
	}
	want := plain.s.String()
	if _, err := Validate(strings.NewReader(want)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil || buf.String() != want {
		t.Errorf("bytes.Buffer: err %v, same bytes %v", err, buf.String() == want)
	}
	var g growRecorder
	if err := tr.WriteJSON(&g); err != nil || g.String() != want {
		t.Errorf("Grow writer: err %v, same bytes %v", err, g.String() == want)
	}
	if !slices.Equal(g.grows, []int{len(want)}) {
		t.Errorf("Grow calls %v, want one of exactly %d", g.grows, len(want))
	}
	for n := 0; n < plain.writes; n++ {
		if err := tr.WriteJSON(&failAfter{n}); !errors.Is(err, errWrite) {
			t.Errorf("writer failing after %d writes: err %v, want %v", n, err, errWrite)
		}
	}
	var nilTr *Tracer
	var empty bytes.Buffer
	if err := nilTr.WriteJSON(&empty); err != nil || empty.String() != traceHead+traceTail {
		t.Errorf("nil tracer: err %v, wrote %q", err, empty.String())
	}
	if err := nilTr.WriteJSON(&failAfter{0}); !errors.Is(err, errWrite) {
		t.Errorf("nil tracer, failing writer: err %v", err)
	}
}

// BenchmarkTracerBatch times one batch's eight engine events on the typed
// path, into a tracer replaced every 1024 batches so memory stays bounded.
func BenchmarkTracerBatch(b *testing.B) {
	clock := sim.NewClock()
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i%1024 == 0 {
			tr = New(clock, 0)
		}
		recordBatch(tr, int64(i))
	}
}
