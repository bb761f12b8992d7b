package listener

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"

	"nostop/internal/jsonwire"
	"nostop/internal/rng"
)

// writeJSONReference is the reply writer the listener used before its wire
// codecs: an indented json.Encoder, or the error text as a 500.
func writeJSONReference(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// encodeReference renders v as writeJSONReference's encoder does.
func encodeReference(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	return b.String()
}

// wireFloats are the floats where encoding/json's formatting has an edge.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 0.1, 1234.5678, 2.0 / 3, 1e-6, 9.99e-7, 1e-7, 1.5e-9,
	5e-324, 2.2250738585072014e-308, 1e20, 1e21, 1.2345e22, 1.7976931348623157e308, -42.5,
}

func checkStatus(t *testing.T, st Status) {
	t.Helper()
	got, err := AppendStatus([]byte("x"), st)
	if err != nil {
		t.Fatalf("AppendStatus(%+v): %v", st, err)
	}
	if want := "x" + encodeReference(t, st); string(got) != want {
		t.Fatalf("AppendStatus(%+v):\n got %q\nwant %q", st, got, want)
	}
	var back Status
	if err := DecodeStatus(got[1:], &back); err != nil || !reflect.DeepEqual(back, st) {
		t.Fatalf("DecodeStatus(%q) = %+v, %v; want %+v", got[1:], back, err, st)
	}
}

func checkReports(t *testing.T, rs []BatchReport) {
	t.Helper()
	got, err := AppendReports([]byte("x"), rs)
	if err != nil {
		t.Fatalf("AppendReports: %v", err)
	}
	if want := "x" + encodeReference(t, rs); string(got) != want {
		t.Fatalf("AppendReports(%d reports):\n got %q\nwant %q", len(rs), got, want)
	}
	prefix := []BatchReport{{BatchID: -1}}
	back, err := DecodeReports(got[1:], prefix)
	if err != nil || !reflect.DeepEqual(back, append(prefix, rs...)) {
		t.Fatalf("DecodeReports(%q) = %+v, %v; want %+v", got[1:], back, err, rs)
	}
	for i := range rs {
		one, err := appendReport(nil, &rs[i])
		if err != nil || string(one) != encodeReference(t, rs[i]) {
			t.Fatalf("appendReport(%+v) = %q, %v", rs[i], one, err)
		}
	}
}

// TestWireMatchesEncodingJSONFixed pins the encoders against the indented
// json.Encoder on the hard cases — tiny, huge, subnormal and negative-zero
// floats, extreme integers, nil and empty slices — and reads each result
// back through the decoders.
func TestWireMatchesEncodingJSONFixed(t *testing.T) {
	for _, f := range wireFloats {
		checkStatus(t, Status{
			Batches: 3, BatchIntervalMs: 5000, Executors: 8, QueueLength: 1, LagRecords: 12,
			RateMean: f, RateStd: -f, MeanProcMs: f / 7, MeanE2EMs: f / 3, P95E2EMs: f,
		})
	}
	checkStatus(t, Status{})
	checkStatus(t, Status{Batches: math.MaxInt, LagRecords: math.MinInt64, QueueLength: -1})

	checkReports(t, nil)
	checkReports(t, []BatchReport{})
	var rs []BatchReport
	for i, f := range wireFloats {
		rs = append(rs, BatchReport{
			BatchID: int64(i), NumRecords: math.MaxInt64, BatchIntervalMs: 200, Executors: i,
			SubmissionTimeSec: f, ProcessingDelayMs: -1, SchedulingDelayMs: math.MinInt64,
			TotalDelayMs: 7, EndToEndDelayMs: 9, FirstAfterChange: i%2 == 0, FaultActive: i%3 == 0,
			QueueLength: i * 1000,
		})
	}
	checkReports(t, rs[:1])
	checkReports(t, rs)
}

// TestWireMatchesEncodingJSONRandom drives the encoders and decoders with
// seeded random values: floats from random bit patterns, so every exponent
// range turns up, and integers across the whole int64 range.
func TestWireMatchesEncodingJSONRandom(t *testing.T) {
	r := rng.New(5).Split("listener/wire").Rand()
	float := func() float64 {
		for {
			if f := math.Float64frombits(r.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
	}
	i64 := func() int64 { return r.Int63() - r.Int63() }
	for i := 0; i < 2000; i++ {
		checkStatus(t, Status{
			Batches: int(i64()), BatchIntervalMs: i64(), Executors: int(i64()),
			QueueLength: int(i64()), LagRecords: i64(), RateMean: float(), RateStd: float(),
			MeanProcMs: float(), MeanE2EMs: float(), P95E2EMs: float(),
		})
		rs := make([]BatchReport, r.Intn(4))
		for j := range rs {
			rs[j] = BatchReport{
				BatchID: i64(), NumRecords: i64(), BatchIntervalMs: i64(), Executors: int(i64()),
				SubmissionTimeSec: float(), ProcessingDelayMs: i64(), SchedulingDelayMs: i64(),
				TotalDelayMs: i64(), EndToEndDelayMs: i64(), FirstAfterChange: r.Intn(2) == 0,
				FaultActive: r.Intn(2) == 0, QueueLength: int(i64()),
			}
		}
		checkReports(t, rs)
	}
}

// TestWireUnsupportedFloatReply: a NaN in /status answers 500 with
// encoding/json's error text, as the json.Encoder reply writer did.
func TestWireUnsupportedFloatReply(t *testing.T) {
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		st := Status{Batches: 1, RateMean: f}
		want := httptest.NewRecorder()
		writeJSONReference(want, st)
		got := httptest.NewRecorder()
		reply(got, func(buf []byte) ([]byte, error) { return AppendStatus(buf, st) })
		if got.Code != http.StatusInternalServerError || got.Code != want.Code ||
			got.Body.String() != want.Body.String() ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Fatalf("%v: reply %d %q %v, want %d %q %v", f, got.Code, got.Body, got.Header(),
				want.Code, want.Body, want.Header())
		}
	}
}

// TestHandlersMatchWriteJSON serves every JSON endpoint of a running
// collector and of an empty one and compares status, headers and body with
// what the json.Encoder reply writer gives for the same values. /batches
// renders null for an empty history and for an empty ?since= range, and []
// for ?last=0 when there is history; ?since= takes precedence over ?last=.
func TestHandlersMatchWriteJSON(t *testing.T) {
	_, col := newRunningEngine(t, 120)
	empty, err := NewCollector(newIdleEngine(t), 0)
	if err != nil {
		t.Fatal(err)
	}
	all := col.Reports()
	if len(all) < 5 {
		t.Fatalf("only %d batches", len(all))
	}
	mid := all[len(all)/2].BatchID
	latest := all[len(all)-1]
	for _, tc := range []struct {
		col  *Collector
		path string
		want any
	}{
		{col, "/status", col.Status()},
		{col, "/batches", all},
		{col, "/batches?last=3", all[len(all)-3:]},
		{col, "/batches?last=0", []BatchReport{}},
		{col, "/batches?last=100000", all},
		{col, "/batches?since=-1", all},
		{col, "/batches?since=" + strconv.FormatInt(mid, 10), all[len(all)/2+1:]},
		{col, "/batches?since=" + strconv.FormatInt(latest.BatchID, 10), []BatchReport(nil)},
		{col, "/batches/latest", latest},
		{col, "/batches?last=1", all[len(all)-1:]},
		{col, "/batches?last=", all},
		{col, "/batches?since=", all},
		{col, "/batches?since=&last=2", all[len(all)-2:]},
		{col, "/batches?since=" + strconv.FormatInt(latest.BatchID-1, 10) + "&last=0", all[len(all)-1:]},
		{col, "/batches?since=" + strconv.FormatInt(latest.BatchID+5, 10), []BatchReport(nil)},
		{col, "/batches?since=-9223372036854775808", all},
		{empty, "/status", empty.Status()},
		{empty, "/batches", []BatchReport(nil)},
		{empty, "/batches?last=2", []BatchReport(nil)},
		{empty, "/batches?last=0", []BatchReport(nil)},
		{empty, "/batches?since=-1", []BatchReport(nil)},
	} {
		got := httptest.NewRecorder()
		routes(tc.col).ServeHTTP(got, httptest.NewRequest(http.MethodGet, tc.path, nil))
		want := httptest.NewRecorder()
		writeJSONReference(want, tc.want)
		if got.Code != want.Code || got.Body.String() != want.Body.String() ||
			!reflect.DeepEqual(got.Header(), want.Header()) {
			t.Errorf("GET %s: %d %v %q\nwant %d %v %q", tc.path, got.Code, got.Header(), got.Body,
				want.Code, want.Header(), want.Body)
		}
	}
}

// TestLongestReportBound checks AppendReports's per-report bound: no float
// renders longer than its 25-character slot in longestReport, whose float
// is a real rendering, and the longest report there is — every integer
// math.MinInt64, the longest float, both booleans false — adds exactly
// len(longestReport) bytes to a /batches array.
func TestLongestReportBound(t *testing.T) {
	const slot = len("-0.0000012345678901234567")
	if got, _ := jsonwire.AppendFloat(nil, -1.2345678901234567e-6); string(got) != "-0.0000012345678901234567" {
		t.Fatalf("longestReport's float renders as %s", got)
	}
	r := rng.New(17).Split("listener/longest").Rand()
	longest, longestLen := 0.0, 0
	for i := 0; i < 200000; i++ {
		f := math.Float64frombits(r.Uint64())
		if i%2 == 0 {
			// Where 'f' form is longest: 17 digits just above 1e-6.
			f = -(1e-6 + 9e-6*r.Float64())
		}
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		b, _ := jsonwire.AppendFloat(nil, f)
		if len(b) > longestLen {
			longest, longestLen = f, len(b)
		}
	}
	if longestLen != slot {
		t.Fatalf("longest float rendered %v in %d bytes, want the %d of the slot", longest, longestLen, slot)
	}
	worst := BatchReport{
		BatchID: math.MinInt64, NumRecords: math.MinInt64, BatchIntervalMs: math.MinInt64,
		Executors: math.MinInt, SubmissionTimeSec: longest, ProcessingDelayMs: math.MinInt64,
		SchedulingDelayMs: math.MinInt64, TotalDelayMs: math.MinInt64, EndToEndDelayMs: math.MinInt64,
		QueueLength: math.MinInt,
	}
	one, err := AppendReports(nil, []BatchReport{worst})
	if err != nil {
		t.Fatal(err)
	}
	two, err := AppendReports(nil, []BatchReport{worst, worst})
	if err != nil {
		t.Fatal(err)
	}
	if step := len(two) - len(one); step != len(longestReport) {
		t.Fatalf("the longest report adds %d bytes, longestReport holds %d", step, len(longestReport))
	}
	if len(one) > len(longestReport)+len("null\n") {
		t.Fatalf("one longest report renders in %d bytes, over AppendReports's %d", len(one),
			len(longestReport)+len("null\n"))
	}
}
