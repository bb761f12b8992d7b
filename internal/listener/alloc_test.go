package listener

import (
	"testing"

	"nostop/internal/rng"
)

// retainedForBudget is the history length the Status budget is pinned at:
// about three virtual hours of one-second batches.
const retainedForBudget = 10800

// TestAllocsStatus pins the O(1) /status: a controller polls it every
// interval, so with a long retained history Status must still allocate
// nothing.
func TestAllocsStatus(t *testing.T) {
	col, err := NewCollector(newIdleEngine(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	feed(col, rng.New(31), retainedForBudget)
	if n := len(col.Reports()); n != retainedForBudget {
		t.Fatalf("retained %d reports, want %d", n, retainedForBudget)
	}
	allocs := testing.AllocsPerRun(1000, func() { _ = col.Status() })
	if allocs != 0 {
		t.Fatalf("Status allocates %.1f/op with %d reports, want 0", allocs, retainedForBudget)
	}
}

// statusSink keeps the benchmarked call from being optimised away.
var statusSink Status

// BenchmarkCollectorStatus measures one /status summary over a long
// retained history.
func BenchmarkCollectorStatus(b *testing.B) {
	col, err := NewCollector(newIdleEngine(b), 0)
	if err != nil {
		b.Fatal(err)
	}
	feed(col, rng.New(31), retainedForBudget)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		statusSink = col.Status()
	}
}
