package listener

import (
	"encoding/json"
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
	if n := len(reportsCopy(col)); n != retainedForBudget {
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
// a reused buffer: /status, and the rendering of the reports a /batches
// reply is cut from.
func TestAllocsWireEncode(t *testing.T) {
	buf := make([]byte, 0, 8192)
	if allocs := testing.AllocsPerRun(1000, func() { buf, _ = AppendStatus(buf[:0], wireStatus) }); allocs != 0 {
		t.Errorf("AppendStatus allocates %.1f/op, want 0", allocs)
	}
	render := func() {
		buf = buf[:0]
		for i := range wireReports {
			buf = appendElement(buf, &wireReports[i])
		}
	}
	if allocs := testing.AllocsPerRun(1000, render); allocs != 0 {
		t.Errorf("appendElement of %d reports allocates %.1f/op, want 0", len(wireReports), allocs)
	}
}

// TestAllocsWireDecode pins the controller's decoder at 0 allocs into
// reused storage, with and without its overlap skipped.
func TestAllocsWireDecode(t *testing.T) {
	status, _ := AppendStatus(nil, wireStatus)
	reports := []byte(encodeReference(t, wireReports))
	known, _ := json.MarshalIndent(wireReports[0], "  ", "  ")
	st := new(Status)
	if allocs := testing.AllocsPerRun(1000, func() { _ = DecodeStatus(status, st) }); allocs != 0 {
		t.Errorf("DecodeStatus allocates %.1f/op, want 0", allocs)
	}
	dst := make([]BatchReport, 0, len(wireReports))
	for _, k := range [][]byte{nil, known} {
		var skipped bool
		allocs := testing.AllocsPerRun(1000, func() { dst, skipped, _, _ = DecodeReports(reports, k, dst[:0]) })
		if allocs != 0 {
			t.Errorf("DecodeReports of %d reports, overlap skipped %v, allocates %.1f/op, want 0",
				len(wireReports), skipped, allocs)
		}
		if skipped != (k != nil) || dst[len(dst)-1] != wireReports[4] {
			t.Fatalf("decoded %d reports, skipped %v, want the encoded values", len(dst), skipped)
		}
	}
	if *st != wireStatus {
		t.Fatalf("decoded %+v, want the encoded values", *st)
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

// BenchmarkWireAppendElements measures rendering five reports as the
// collector renders each arriving batch for /batches.
func BenchmarkWireAppendElements(b *testing.B) {
	buf := make([]byte, 0, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		for j := range wireReports {
			buf = appendElement(buf, &wireReports[j])
		}
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
// reply into reused storage: every report, and the four after an overlap
// the poller already holds.
func BenchmarkWireDecodeReports(b *testing.B) {
	reports := []byte(encodeReference(b, wireReports))
	known, _ := json.MarshalIndent(wireReports[0], "  ", "  ")
	for _, bc := range []struct {
		name  string
		known []byte
	}{{"all", nil}, {"overlap-skipped", known}} {
		b.Run(bc.name, func(b *testing.B) {
			dst := make([]BatchReport, 0, len(wireReports))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if dst, _, _, err = DecodeReports(reports, bc.known, dst[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
