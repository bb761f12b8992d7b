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

// wireStatus and wireReports are typical polled values: a /status reply
// and a /batches?since= reply of five reports.
var (
	wireStatus = Status{
		Batches: 1234, BatchIntervalMs: 4200, Executors: 12, QueueLength: 1, LagRecords: 5321,
		RateMean: 48213.377, RateStd: 2071.0625, MeanProcMs: 3911.25, MeanE2EMs: 6234.123456789,
		P95E2EMs: 9020.5,
	}
	wireReports = func() []BatchReport {
		rs := make([]BatchReport, 5)
		for i := range rs {
			rs[i] = BatchReport{
				BatchID: int64(1000 + i), NumRecords: 201234, BatchIntervalMs: 4200, Executors: 12,
				SubmissionTimeSec: 4321.2 + 4.2*float64(i), ProcessingDelayMs: 3900, SchedulingDelayMs: 12,
				TotalDelayMs: 3912, EndToEndDelayMs: 6011, FirstAfterChange: i == 0, QueueLength: 1,
			}
		}
		return rs
	}()
)

// TestAllocsWireEncode pins the polled replies' encoders at 0 allocs into
// a reused buffer.
func TestAllocsWireEncode(t *testing.T) {
	buf := make([]byte, 0, 8192)
	if allocs := testing.AllocsPerRun(1000, func() { buf, _ = AppendStatus(buf[:0], wireStatus) }); allocs != 0 {
		t.Errorf("AppendStatus allocates %.1f/op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(1000, func() { buf, _ = AppendReports(buf[:0], wireReports) }); allocs != 0 {
		t.Errorf("AppendReports of %d reports allocates %.1f/op, want 0", len(wireReports), allocs)
	}
	// A whole-history reply grows its buffer once, not by doubling.
	history := make([]BatchReport, 1200)
	for i := range history {
		history[i] = wireReports[i%len(wireReports)]
	}
	if allocs := testing.AllocsPerRun(10, func() { _, _ = AppendReports(nil, history) }); allocs != 1 {
		t.Errorf("AppendReports of %d reports into nil allocates %.1f/op, want 1", len(history), allocs)
	}
}

// TestAllocsWireDecode pins the controller's decoders at 0 allocs into
// reused storage.
func TestAllocsWireDecode(t *testing.T) {
	status, _ := AppendStatus(nil, wireStatus)
	reports, _ := AppendReports(nil, wireReports)
	st := new(Status)
	if allocs := testing.AllocsPerRun(1000, func() { _ = DecodeStatus(status, st) }); allocs != 0 {
		t.Errorf("DecodeStatus allocates %.1f/op, want 0", allocs)
	}
	dst := make([]BatchReport, 0, len(wireReports))
	if allocs := testing.AllocsPerRun(1000, func() { dst, _ = DecodeReports(reports, dst[:0]) }); allocs != 0 {
		t.Errorf("DecodeReports of %d reports allocates %.1f/op, want 0", len(wireReports), allocs)
	}
	if *st != wireStatus || len(dst) != len(wireReports) || dst[4] != wireReports[4] {
		t.Fatalf("decoded %+v and %d reports, want the encoded values", *st, len(dst))
	}
}

// BenchmarkWireAppendStatus measures encoding one /status reply.
func BenchmarkWireAppendStatus(b *testing.B) {
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendStatus(buf[:0], wireStatus)
	}
}

// BenchmarkWireAppendReports measures encoding a five-report /batches reply.
func BenchmarkWireAppendReports(b *testing.B) {
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = AppendReports(buf[:0], wireReports)
	}
}

// BenchmarkWireDecodeStatus measures decoding one /status reply.
func BenchmarkWireDecodeStatus(b *testing.B) {
	status, _ := AppendStatus(nil, wireStatus)
	st := new(Status)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeStatus(status, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireDecodeReports measures decoding a five-report /batches
// reply into reused storage.
func BenchmarkWireDecodeReports(b *testing.B) {
	reports, _ := AppendReports(nil, wireReports)
	dst := make([]BatchReport, 0, len(wireReports))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if dst, err = DecodeReports(reports, dst[:0]); err != nil {
			b.Fatal(err)
		}
	}
}
