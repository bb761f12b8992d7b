package engine

import (
	"testing"

	"nostop/internal/broker"
	"nostop/internal/metrics"
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
