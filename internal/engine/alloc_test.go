package engine

import (
	"math/bits"
	"runtime"
	"testing"
	"time"

	"nostop/internal/broker"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// TestAllocsObservation pins the metrics-only observability configuration
// (registry attached, tracer absent): the traceOn guard in obsState must
// keep every broker.Observer callback from building trace payloads, so the
// per-record observation path stays allocation-free. Referenced by the
// traceOn field comment in observe.go.
func TestAllocsObservation(t *testing.T) {
	o := newObsState(metrics.NewRegistry(), nil)
	if o == nil {
		t.Fatal("newObsState returned nil with a live registry")
	}
	if o.traceOn {
		t.Fatal("traceOn set without a tracer")
	}
	ranges := []broker.OffsetRange{{Partition: 0, From: 0, To: 10}}
	allocs := testing.AllocsPerRun(1000, func() {
		o.OnAppend("in", 5)
		o.OnFetch("in", 10, ranges)
		o.OnCommit("in", 10, ranges)
		o.OnRewind("in", 0, 3)
		o.OnOutage("in", 0, true)
		o.OnOutage("in", 0, false)
	})
	if allocs != 0 {
		t.Fatalf("metrics-only observer callbacks allocate %.1f/op, want 0", allocs)
	}
}

// TestAllocsTracedBatch is TestAllocsObservation's traced twin: with a
// registry and a tracer attached, one batch's callbacks (the fetch, the
// cut, the attempt and the completion) record eight events with typed args
// and constant name prefixes. The only allocations left are the tracer's
// own: one per buffer chunk, counted by the writes WriteJSON makes, and
// the doublings of the list that keeps the full ones.
func TestAllocsTracedBatch(t *testing.T) {
	clock := sim.NewClock()
	tr := tracing.New(clock, 0)
	e, err := New(clock, Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
		Seed:     rng.New(7),
		Initial:  Config{BatchInterval: 5 * time.Second, Executors: 8},
		Metrics:  metrics.NewRegistry(),
		Tracer:   tr,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !e.obs.traceOn {
		t.Fatal("traceOn unset with a tracer")
	}
	// Values past 255 box into an interface with an allocation, so a
	// payload built as an Args map again would show here.
	e.prod.SendCount(100000)
	ranges := []broker.OffsetRange{{Partition: 0, From: 0, To: 10}}
	b := &batch{records: 120000, tasks: 25, attempts: 1}
	bs := BatchStats{ProcessingTime: 800 * time.Millisecond, SchedulingDelay: 200 * time.Millisecond, EndToEndDelay: 3 * time.Second}
	oneBatch := func() {
		b.id++
		e.obs.OnFetch("in", b.records, ranges)
		e.onBatchCut(b)
		e.onAttempt(b, clock.Now(), bs.ProcessingTime, false)
		e.onBatchComplete(b, bs)
	}
	oneBatch() // the first chunk
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const batches = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		oneBatch()
	}
	runtime.ReadMemStats(&after)
	var w writeCounter
	if err := tr.WriteJSON(&w); err != nil {
		t.Fatal(err)
	}
	chunks := w.writes - 2 // less the head and the tail
	if tr.Len() < 8*batches || chunks < 10 {
		t.Fatalf("%d batches recorded %d events in %d chunks", batches, tr.Len(), chunks)
	}
	limit := uint64(chunks + bits.Len(uint(chunks)) + 1)
	if got := after.Mallocs - before.Mallocs; got > limit {
		t.Fatalf("%d traced batches allocated %d times, want at most %d: one per chunk (%d) and per doubling of the chunk list",
			batches, got, limit, chunks)
	}
}

// writeCounter counts the writes made to it.
type writeCounter struct{ writes int }

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return len(p), nil
}
