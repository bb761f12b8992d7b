package tracing

import (
	"runtime"
	"testing"
	"time"

	"nostop/internal/sim"
)

// A nil *Tracer is the disabled-tracing configuration: every record call,
// typed args included, must be a zero-allocation no-op. Typed args live on
// the caller's stack; a call site that builds an Args map must gate on its
// own traceOn flag, since the map literal allocates before the method is
// entered.
func TestAllocsNilTracer(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(1, 1, "cat", "name", sim.Time(0), time.Millisecond, nil)
		tr.Instant(1, 1, "cat", "name", nil)
		tr.Counter(1, "name", nil)
		tr.TypedSpan(1, 1, "cat", "batch ", 7, sim.Time(0), time.Millisecond, Int("records", 9), Bool("failed", true))
		tr.TypedInstant(1, 1, "cat", "cut batch ", 7, Float("rate", 0.5), Int("records", 9))
		tr.TypedCounter(1, "queue", Int("batches", 3))
		tr.NameProcess(1, "p")
		tr.NameThread(1, 1, "t")
	})
	if allocs != 0 {
		t.Fatalf("nil-Tracer ops allocate %.1f/op, want 0", allocs)
	}
}

// TestAllocsTracerChunks records the engine's per-batch events across
// many chunks: the only allocations are the chunks themselves and the
// doublings of the list that keeps the full ones.
func TestAllocsTracerChunks(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	tr := New(sim.NewClock(), 0)
	recordBatch(tr, 0) // the first chunk
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for id := int64(1); id <= 1000; id++ {
		recordBatch(tr, id)
	}
	runtime.ReadMemStats(&after)
	chunks := len(tr.chunks) // new since the first, which is one of them
	var list [][]byte
	doublings := 0
	for i := 0; i < len(tr.chunks); i++ {
		if len(list) == cap(list) {
			doublings++
		}
		list = append(list, nil)
	}
	if chunks < 10 {
		t.Fatalf("1000 batches filled %d chunks; the test wants many", chunks)
	}
	if got := after.Mallocs - before.Mallocs; got != uint64(chunks+doublings) {
		t.Fatalf("1000 batches allocated %d times, want %d: %d chunks and %d doublings of their list",
			got, chunks+doublings, chunks, doublings)
	}
}

// TestAllocsArgsMap pins the map path: an Args map of up to eight pairs
// holding integers, bools, strings and floats sorts on the stack and
// encodes without allocating.
func TestAllocsArgsMap(t *testing.T) {
	h := header{name: "iteration 3", id: NoID, cat: "spsa", ph: PhaseInstant, s: "t"}
	m := Args{"theta": 0.25, "k": int64(1 << 40), "phase": "measure+", "ok": true, "a": 3, "z": -1e-9}
	buf := make([]byte, 0, 1024)
	allocs := testing.AllocsPerRun(1000, func() {
		var err error
		if buf, err = appendEvent(buf[:0], &h, nil, m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("encoding a six-pair Args map allocates %.1f/op, want 0", allocs)
	}
}
