package listener

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/workload"
)

func newRunningEngine(t *testing.T, horizon float64) (*engine.Engine, *Collector) {
	t.Helper()
	clock := sim.NewClock()
	eng, err := engine.New(clock, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 50000},
		Seed:     rng.New(3),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(time.Duration(horizon * float64(time.Second))))
	return eng, col
}

// routes serves the collector's routes on a mux of their own, mounted as a
// server mounts them beside its own.
func routes(c *Collector) *http.ServeMux {
	mux := http.NewServeMux()
	c.Mount(mux)
	return mux
}

// newIdleEngine builds an engine that is never started, for tests that
// feed the collector directly.
func newIdleEngine(t testing.TB) *engine.Engine {
	t.Helper()
	eng, err := engine.New(sim.NewClock(), engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// feed hands n batches with seeded delays straight to the collector, about
// half of them drawn from four tied values, so both running summaries and
// the sorted slice see repeats.
func feed(col *Collector, r *rng.Stream, n int) {
	delay := func() time.Duration {
		if r.Intn(2) == 0 {
			return time.Duration(1+r.Intn(4)) * time.Second
		}
		return time.Duration(1+r.Intn(120000)) * time.Millisecond
	}
	var next int64
	if latest, ok := col.Latest(); ok {
		next = latest.BatchID + 1
	}
	for i := 0; i < n; i++ {
		col.onBatch(engine.BatchStats{
			ID:             next + int64(i),
			ProcessingTime: delay(),
			EndToEndDelay:  delay(),
		})
	}
}

func TestNewCollectorValidation(t *testing.T) {
	if _, err := NewCollector(nil, 0); err == nil {
		t.Error("nil engine accepted")
	}
	if _, err := NewCollector(newIdleEngine(t), -1); err == nil {
		t.Error("negative maxKeep accepted")
	}
}

// TestStatusMatchesFromScratch checks the running summaries against a
// from-scratch computation over the retained reports after every batch,
// bit for bit, when every batch evicts (maxKeep 1), when most do (5) and
// when none does (the default).
func TestStatusMatchesFromScratch(t *testing.T) {
	for _, maxKeep := range []int{1, 5, 0} {
		t.Run(fmt.Sprintf("maxKeep=%d", maxKeep), func(t *testing.T) {
			col, err := NewCollector(newIdleEngine(t), maxKeep)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(29)
			for batch := 1; batch <= 2000; batch++ {
				feed(col, r, 1)
				reports := col.Reports()
				proc := make([]float64, len(reports))
				e2e := make([]float64, len(reports))
				for i, rep := range reports {
					proc[i] = float64(rep.ProcessingDelayMs)
					e2e[i] = float64(rep.EndToEndDelayMs)
				}
				want := stats.Summarize(e2e)
				st := col.Status()
				for _, f := range []struct {
					name      string
					got, want float64
				}{
					{"MeanProcMs", st.MeanProcMs, stats.Mean(proc)},
					{"MeanE2EMs", st.MeanE2EMs, want.Mean},
					{"P95E2EMs", st.P95E2EMs, want.P95},
				} {
					if math.Float64bits(f.got) != math.Float64bits(f.want) {
						t.Fatalf("batch %d (%d retained): %s = %v, from scratch %v",
							batch, len(reports), f.name, f.got, f.want)
					}
				}
			}
		})
	}
}

// TestStatusConcurrentWithBatches reads Status and Reports from several
// goroutines while batches arrive, as HTTP handlers do against a running
// simulation; under -race it checks that the running summaries are only
// touched under the collector's lock.
func TestStatusConcurrentWithBatches(t *testing.T) {
	col, err := NewCollector(newIdleEngine(t), 50)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if st := col.Status(); st.Batches > 50 || st.P95E2EMs < 0 {
					t.Errorf("inconsistent status %+v", st)
					return
				}
				_ = col.Reports()
			}
		}()
	}
	feed(col, rng.New(37), 2000)
	close(stop)
	wg.Wait()
}

func TestReportFields(t *testing.T) {
	bs := engine.BatchStats{
		ID:                 7,
		Records:            1234,
		Config:             engine.Config{BatchInterval: 5 * time.Second, Executors: 9},
		CutAt:              sim.Time(10 * time.Second),
		SchedulingDelay:    500 * time.Millisecond,
		ProcessingTime:     2 * time.Second,
		EndToEndDelay:      5 * time.Second,
		FirstAfterReconfig: true,
		QueueLen:           2,
	}
	r := Report(bs)
	if r.BatchID != 7 || r.NumRecords != 1234 || r.Executors != 9 {
		t.Fatalf("report %+v", r)
	}
	if r.BatchIntervalMs != 5000 || r.ProcessingDelayMs != 2000 || r.SchedulingDelayMs != 500 {
		t.Fatalf("delays wrong: %+v", r)
	}
	if r.TotalDelayMs != 2500 {
		t.Fatalf("TotalDelayMs=%d, want 2500", r.TotalDelayMs)
	}
	if !r.FirstAfterChange || r.QueueLength != 2 || r.SubmissionTimeSec != 10 {
		t.Fatalf("flags wrong: %+v", r)
	}
}

func TestCollectorAccumulates(t *testing.T) {
	eng, col := newRunningEngine(t, 120)
	reports := col.Reports()
	if len(reports) != len(eng.History()) {
		t.Fatalf("collector has %d, engine %d", len(reports), len(eng.History()))
	}
	latest, ok := col.Latest()
	if !ok || latest.BatchID != reports[len(reports)-1].BatchID {
		t.Fatalf("Latest mismatch: %+v", latest)
	}
	// Reports must be JSON-serialisable with the expected keys.
	blob, err := json.Marshal(latest)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(blob, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"batchId", "numRecords", "processingDelayMs", "schedulingDelayMs", "totalDelayMs"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("JSON missing key %q: %s", key, blob)
		}
	}
}

func TestCollectorEviction(t *testing.T) {
	clock := sim.NewClock()
	eng, _ := engine.New(clock, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
		Seed:     rng.New(4),
		Initial:  engine.Config{BatchInterval: 2 * time.Second, Executors: 4},
	})
	col, _ := NewCollector(eng, 5)
	eng.Start()
	clock.RunUntil(sim.Time(60 * time.Second))
	reports := col.Reports()
	if len(reports) != 5 {
		t.Fatalf("kept %d reports, want 5", len(reports))
	}
	// Must be the most recent five, in order.
	for i := 1; i < len(reports); i++ {
		if reports[i].BatchID != reports[i-1].BatchID+1 {
			t.Fatalf("eviction broke ordering: %+v", reports)
		}
	}
	if last := eng.History()[len(eng.History())-1]; reports[4].BatchID != last.ID {
		t.Fatalf("newest report %d != newest batch %d", reports[4].BatchID, last.ID)
	}
}

func TestLatestEmpty(t *testing.T) {
	col, _ := NewCollector(newIdleEngine(t), 0)
	if _, ok := col.Latest(); ok {
		t.Fatal("Latest on empty collector")
	}
}

func TestStatusSummary(t *testing.T) {
	eng, col := newRunningEngine(t, 300)
	st := col.Status()
	if st.Batches != len(eng.History()) {
		t.Fatalf("Batches=%d, want %d", st.Batches, len(eng.History()))
	}
	if st.BatchIntervalMs != 5000 || st.Executors != 8 {
		t.Fatalf("config in status wrong: %+v", st)
	}
	if st.RateMean < 45000 || st.RateMean > 55000 {
		t.Fatalf("RateMean=%v, want ≈50000", st.RateMean)
	}
	if st.MeanProcMs <= 0 || st.MeanE2EMs <= st.MeanProcMs {
		t.Fatalf("delay summary inconsistent: %+v", st)
	}
	if st.P95E2EMs < st.MeanE2EMs*0.5 {
		t.Fatalf("p95 %v below half the mean %v", st.P95E2EMs, st.MeanE2EMs)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	_, col := newRunningEngine(t, 120)
	srv := httptest.NewServer(routes(col))
	defer srv.Close()

	getJSON := func(path string, v any) int {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode == 200 {
			if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
				t.Fatalf("decode %s: %v", path, err)
			}
		}
		return resp.StatusCode
	}

	var st Status
	if code := getJSON("/status", &st); code != 200 {
		t.Fatalf("/status code %d", code)
	}
	if st.Batches == 0 {
		t.Fatal("/status shows no batches")
	}

	var all []BatchReport
	if code := getJSON("/batches", &all); code != 200 {
		t.Fatal("bad /batches")
	}
	if len(all) != st.Batches {
		t.Fatalf("/batches returned %d, status says %d", len(all), st.Batches)
	}

	var tail []BatchReport
	if code := getJSON("/batches?last=3", &tail); code != 200 {
		t.Fatal("bad /batches?last=3")
	}
	if len(tail) != 3 {
		t.Fatalf("last=3 returned %d", len(tail))
	}
	if tail[2].BatchID != all[len(all)-1].BatchID {
		t.Fatal("tail not aligned with newest")
	}

	var latest BatchReport
	if code := getJSON("/batches/latest", &latest); code != 200 {
		t.Fatal("bad /batches/latest")
	}
	if latest.BatchID != all[len(all)-1].BatchID {
		t.Fatal("latest mismatch")
	}

	var junk any
	if code := getJSON("/batches?last=x", &junk); code != 400 {
		t.Fatalf("bad last parameter gave %d, want 400", code)
	}
}

func TestHTTPLatestEmpty404(t *testing.T) {
	col, _ := NewCollector(newIdleEngine(t), 0)
	srv := httptest.NewServer(routes(col))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/batches/latest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Fatalf("code %d, want 404", resp.StatusCode)
	}
}

// TestMetricsStatusAgree asserts the synchronisation contract in the package
// comment: with the clock stopped, /status Batches, the legacy
// nostop_batches_total gauge, and the attached registry's
// nostop_batches_completed_total counter report the same batch count.
func TestMetricsStatusAgree(t *testing.T) {
	clock := sim.NewClock()
	reg := metrics.NewRegistry()
	eng, err := engine.New(clock, engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 50000},
		Seed:     rng.New(3),
		Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
		Metrics:  reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	col, err := NewCollector(eng, 0)
	if err != nil {
		t.Fatal(err)
	}
	col.SetRegistry(reg)
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(120 * time.Second))

	srv := httptest.NewServer(routes(col))
	defer srv.Close()

	var st Status
	resp, err := srv.Client().Get(srv.URL + "/status")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Batches == 0 {
		t.Fatal("/status shows no batches")
	}

	resp, err = srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	// Pull a sample value out of the exposition by metric name.
	sample := func(name string) float64 {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			if rest, ok := strings.CutPrefix(line, name+" "); ok {
				v, err := strconv.ParseFloat(rest, 64)
				if err != nil {
					t.Fatalf("unparsable sample %q: %v", line, err)
				}
				return v
			}
		}
		t.Fatalf("/metrics missing %s:\n%s", name, body)
		return 0
	}

	if legacy := sample("nostop_batches_total"); legacy != float64(st.Batches) {
		t.Errorf("legacy gauge %v != status batches %d", legacy, st.Batches)
	}
	if completed := sample("nostop_batches_completed_total"); completed != float64(st.Batches) {
		t.Errorf("registry counter %v != status batches %d", completed, st.Batches)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, col := newRunningEngine(t, 120)
	srv := httptest.NewServer(routes(col))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("/metrics code %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"nostop_batches_total", "nostop_queue_length", "nostop_input_rate_mean",
		"# TYPE nostop_executors gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}
	// The gauge values must reflect the live system.
	if !strings.Contains(text, "nostop_executors 8") {
		t.Fatalf("executors gauge wrong:\n%s", text)
	}
}

// queryTokens are the pairs TestScanQueryMatchesParseQuery builds queries
// from: the keys GET /batches reads, with and without a value, near-miss
// keys, an empty key, a second '=', escapes, '+', ';' and the empty pair.
var queryTokens = []string{
	"since=3", "since=-1", "since=", "since", "last=2", "last=", "last",
	"Since=4", "sinces=5", "xsince=6", " since=7", "since =8", "lastx=9", "=10", "since=1=2",
	"since=%33", "s%69nce=4", "last=%zz", "last=+1", "since=a+b", "since=1;last=2", ";", "",
}

// checkScanQuery holds scanQuery to url.ParseQuery: it must refuse a query
// holding '%', '+' or ';', and give ParseQuery's first since and last
// values for any other.
func checkScanQuery(t *testing.T, raw string) {
	since, last, ok := scanQuery(raw)
	if strings.ContainsAny(raw, "%+;") {
		if ok {
			t.Errorf("scanQuery(%q) accepted a query holding '%%', '+' or ';'", raw)
		}
		return
	}
	q, _ := url.ParseQuery(raw)
	if !ok || since != q.Get("since") || last != q.Get("last") {
		t.Errorf("scanQuery(%q) = %q, %q, %v; url.ParseQuery gives since %q, last %q",
			raw, since, last, ok, q.Get("since"), q.Get("last"))
	}
}

// TestScanQueryMatchesParseQuery checks scanQuery on every query of up to
// three pairs drawn from queryTokens, repeated keys and empty pairs
// included.
func TestScanQueryMatchesParseQuery(t *testing.T) {
	checked := 0
	var walk func(raw string, pairs int)
	walk = func(raw string, pairs int) {
		checkScanQuery(t, raw)
		checked++
		if pairs == 3 {
			return
		}
		for _, tok := range queryTokens {
			if pairs == 0 {
				walk(tok, 1)
			} else {
				walk(raw+"&"+tok, pairs+1)
			}
		}
	}
	walk("", 0)
	t.Logf("checked %d queries", checked)
}

// FuzzScanQuery checks scanQuery against url.ParseQuery on any raw query.
func FuzzScanQuery(f *testing.F) {
	for _, seed := range []string{
		"since=3", "last=2&since=1", "since&since=4", "&&last=&last=5", "s%69nce=4", "since=a+b",
		"x;since=1", "=1&since=1=2", "",
	} {
		f.Add(seed)
	}
	f.Fuzz(checkScanQuery)
}
