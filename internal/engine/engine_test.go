package engine

import (
	"errors"
	"testing"
	"time"

	"nostop/internal/cluster"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

// newEngine builds and starts an engine with sensible test defaults.
func newEngine(t *testing.T, mutate func(*Options)) (*sim.Clock, *Engine) {
	t.Helper()
	clock := sim.NewClock()
	opts := Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 1000},
		Seed:     rng.New(7),
		Initial:  Config{BatchInterval: 5 * time.Second, Executors: 8},
	}
	if mutate != nil {
		mutate(&opts)
	}
	e, err := New(clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	return clock, e
}

func TestNewValidation(t *testing.T) {
	clock := sim.NewClock()
	good := Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 100},
	}
	if _, err := New(nil, good); err == nil {
		t.Error("nil clock accepted")
	}
	bad := good
	bad.Workload = nil
	if _, err := New(clock, bad); err == nil {
		t.Error("nil workload accepted")
	}
	bad = good
	bad.Trace = nil
	if _, err := New(clock, bad); err == nil {
		t.Error("nil trace accepted")
	}
	bad = good
	bad.Initial = Config{BatchInterval: time.Hour, Executors: 3}
	if _, err := New(clock, bad); !errors.Is(err, ErrOutOfBounds) {
		t.Errorf("out-of-bounds initial: err=%v", err)
	}
	bad = good
	bad.Cluster = cluster.Homogeneous(1, 4)
	bad.Bounds = Bounds{MinInterval: time.Second, MaxInterval: time.Minute, MinExecutors: 1, MaxExecutors: 10}
	if _, err := New(clock, bad); err == nil {
		t.Error("bounds beyond cluster capacity accepted")
	}
}

func TestStartTwiceFails(t *testing.T) {
	_, e := newEngine(t, nil)
	if err := e.Start(); !errors.Is(err, ErrAlreadyStart) {
		t.Fatalf("second Start err=%v", err)
	}
}

func TestBatchesCutAtInterval(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(61)))
	h := e.History()
	// 12 cuts in 60s at 5s interval (first at t=5s); all complete quickly.
	if len(h) < 11 || len(h) > 13 {
		t.Fatalf("completed %d batches in 60s at 5s interval", len(h))
	}
	for i, b := range h {
		if b.ID != int64(i) {
			t.Fatalf("batch IDs out of order: %v", b.ID)
		}
		wantCut := sim.Time(sec(float64(i+1) * 5))
		if b.CutAt != wantCut {
			t.Fatalf("batch %d cut at %v, want %v", i, b.CutAt, wantCut)
		}
	}
}

func TestBatchRecordCountMatchesRate(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(120)))
	for _, b := range e.History()[1:] {
		// 1000 rec/s × 5s = 5000 records per batch.
		if b.Records < 4950 || b.Records > 5050 {
			t.Fatalf("batch %d has %d records, want ≈5000", b.ID, b.Records)
		}
	}
}

func TestStableConfigHasNoSchedulingDelay(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(300)))
	for _, b := range e.History() {
		if b.SchedulingDelay != 0 {
			t.Fatalf("batch %d scheduling delay %v in stable regime", b.ID, b.SchedulingDelay)
		}
	}
	if e.QueueLen() != 0 {
		t.Fatalf("queue length %d in stable regime", e.QueueLen())
	}
}

func TestUnstableConfigQueueGrows(t *testing.T) {
	// LogReg at 10k rec/s with 2 executors and a 2s interval: processing
	// time far exceeds the interval (§3.1 unstable regime).
	clock, e := newEngine(t, func(o *Options) {
		o.Workload = workload.NewLogisticRegression()
		o.Trace = ratetrace.Constant{Rate: 10000}
		o.Initial = Config{BatchInterval: 2 * time.Second, Executors: 2}
	})
	clock.RunUntil(sim.Time(sec(600)))
	h := e.History()
	if len(h) < 3 {
		t.Fatalf("only %d batches completed", len(h))
	}
	// Scheduling delay must grow monotonically (within noise) and end large.
	first := h[1].SchedulingDelay
	last := h[len(h)-1].SchedulingDelay
	if last <= first {
		t.Fatalf("scheduling delay not growing: first %v last %v", first, last)
	}
	if last < 30*time.Second {
		t.Fatalf("unstable run ended with small delay %v", last)
	}
	if e.QueueLen() < 10 {
		t.Fatalf("queue length %d, expected pile-up", e.QueueLen())
	}
}

func TestEndToEndDelayFormula(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(60)))
	for _, b := range e.History() {
		want := b.Config.BatchInterval/2 + b.SchedulingDelay + b.ProcessingTime
		if b.EndToEndDelay != want {
			t.Fatalf("batch %d e2e %v, want %v", b.ID, b.EndToEndDelay, want)
		}
	}
}

func TestReconfigureAppliesAtBoundary(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.At(sim.Time(sec(7)), func() {
		if err := e.Reconfigure(Config{BatchInterval: 10 * time.Second, Executors: 8}); err != nil {
			t.Errorf("Reconfigure: %v", err)
		}
	})
	clock.RunUntil(sim.Time(sec(66)))
	h := e.History()
	// Cuts at 5, 10 (old interval), then 20, 30, ... (new interval).
	if h[0].Config.BatchInterval != 5*time.Second {
		t.Fatalf("batch 0 interval %v", h[0].Config.BatchInterval)
	}
	var sawNew bool
	for _, b := range h {
		if b.Config.BatchInterval == 10*time.Second {
			sawNew = true
		}
	}
	if !sawNew {
		t.Fatal("new interval never took effect")
	}
	if e.Config().BatchInterval != 10*time.Second {
		t.Fatalf("live config %v", e.Config())
	}
	if e.Reconfigs() != 1 {
		t.Fatalf("Reconfigs=%d, want 1", e.Reconfigs())
	}
}

func TestFirstBatchAfterReconfigFlagged(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.At(sim.Time(sec(7)), func() {
		_ = e.Reconfigure(Config{BatchInterval: 5 * time.Second, Executors: 12})
	})
	clock.RunUntil(sim.Time(sec(60)))
	var flagged []int64
	for _, b := range e.History() {
		if b.FirstAfterReconfig {
			flagged = append(flagged, b.ID)
		}
	}
	if len(flagged) != 1 {
		t.Fatalf("flagged batches %v, want exactly one", flagged)
	}
}

func TestExecutorChangeChargesSetup(t *testing.T) {
	// Two identical runs except one reconfigures executor count; the first
	// batch after the change must pay the setup cost.
	run := func(reconfig bool) []BatchStats {
		clock, e := newEngine(t, func(o *Options) {
			o.ReconfigSetup = 5 * time.Second
		})
		if reconfig {
			clock.At(sim.Time(sec(7)), func() {
				_ = e.Reconfigure(Config{BatchInterval: 5 * time.Second, Executors: 9})
			})
		}
		clock.RunUntil(sim.Time(sec(40)))
		return e.History()
	}
	plain := run(false)
	changed := run(true)
	// Find the flagged batch and compare to the same-ID batch in the
	// plain run: the difference must be >= the setup cost (executor count
	// differs slightly too, but 5s dominates).
	var found bool
	for i, b := range changed {
		if b.FirstAfterReconfig && i < len(plain) {
			found = true
			delta := b.ProcessingTime - plain[i].ProcessingTime
			if delta < 4*time.Second {
				t.Fatalf("setup cost not charged: delta %v", delta)
			}
		}
	}
	if !found {
		t.Fatal("no flagged batch found")
	}
}

func TestIntervalOnlyChangeDoesNotChargeSetup(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.ReconfigSetup = 20 * time.Second
	})
	clock.At(sim.Time(sec(7)), func() {
		_ = e.Reconfigure(Config{BatchInterval: 6 * time.Second, Executors: 8})
	})
	clock.RunUntil(sim.Time(sec(60)))
	for _, b := range e.History() {
		if b.ProcessingTime > 10*time.Second {
			t.Fatalf("interval-only change charged setup: batch %d took %v", b.ID, b.ProcessingTime)
		}
	}
}

func TestReconfigureValidation(t *testing.T) {
	clock := sim.NewClock()
	e, err := New(clock, Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Reconfigure(DefaultConfig()); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("pre-start Reconfigure err=%v", err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	if err := e.Reconfigure(Config{BatchInterval: time.Hour, Executors: 2}); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("out-of-bounds Reconfigure err=%v", err)
	}
	if err := e.Reconfigure(e.Config()); err != nil {
		t.Fatalf("no-op Reconfigure err=%v", err)
	}
	if e.Reconfigs() != 0 {
		t.Fatal("no-op reconfigure counted")
	}
}

func TestMoreExecutorsProcessFaster(t *testing.T) {
	mean := func(executors int) float64 {
		clock, e := newEngine(t, func(o *Options) {
			o.Workload = workload.NewLogisticRegression()
			o.Trace = ratetrace.Constant{Rate: 10000}
			o.Initial = Config{BatchInterval: 20 * time.Second, Executors: executors}
		})
		clock.RunUntil(sim.Time(sec(400)))
		var sum float64
		var n int
		for _, b := range e.History() {
			sum += b.ProcessingTime.Seconds()
			n++
		}
		return sum / float64(n)
	}
	few := mean(3)
	many := mean(12)
	if many >= few {
		t.Fatalf("12 executors (%.2fs) not faster than 3 (%.2fs)", many, few)
	}
}

func TestPayloadPathProducesSemanticResults(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.PayloadsPerTick = 5
	})
	clock.RunUntil(sim.Time(sec(30)))
	h := e.History()
	if len(h) == 0 {
		t.Fatal("no batches")
	}
	var withSemantic int
	for _, b := range h {
		if b.Semantic.Records > 0 {
			withSemantic++
			if b.Semantic.Output["tokens"] <= 0 {
				t.Fatalf("semantic result missing tokens: %+v", b.Semantic)
			}
		}
	}
	if withSemantic == 0 {
		t.Fatal("no batch carried semantic results")
	}
}

func TestNoPayloadsByDefault(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(20)))
	for _, b := range e.History() {
		if b.Semantic.Records != 0 {
			t.Fatal("payloads present without PayloadsPerTick")
		}
	}
}

func TestRecentRateTracksTrace(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.RunUntil(sim.Time(sec(60)))
	if m := e.RecentRateMean(); m < 950 || m > 1050 {
		t.Fatalf("RecentRateMean=%v, want ≈1000", m)
	}
	if s := e.RecentRateStd(); s > 10 {
		t.Fatalf("RecentRateStd=%v for constant trace", s)
	}
}

func TestRecentRateStdDetectsSurge(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.Trace = ratetrace.Surge{Base: 1000, Peak: 5000, Start: sim.Time(sec(60)), Duration: 60 * time.Second}
	})
	clock.RunUntil(sim.Time(sec(55)))
	before := e.RecentRateStd()
	clock.RunUntil(sim.Time(sec(75)))
	during := e.RecentRateStd()
	if during < 100 || during <= before*5 {
		t.Fatalf("surge not visible in rate std: before %v during %v", before, during)
	}
}

func TestIngestCapLimitsLag(t *testing.T) {
	clock, e := newEngine(t, func(o *Options) {
		o.Trace = ratetrace.Constant{Rate: 10000}
	})
	e.SetIngestCap(2000)
	clock.RunUntil(sim.Time(sec(60)))
	if e.DroppedByCap() < int64(60*7000) {
		t.Fatalf("dropped %d, want ≈480000", e.DroppedByCap())
	}
	// Accepted rate ≈ 2000/s: each 5s batch ≈ 10000 records.
	for _, b := range e.History()[1:] {
		if b.Records > 10500 {
			t.Fatalf("batch %d has %d records despite cap", b.ID, b.Records)
		}
	}
}

func TestListenersNotified(t *testing.T) {
	clock, e := newEngine(t, nil)
	var got []int64
	e.AddListener(ListenerFunc(func(bs BatchStats) { got = append(got, bs.ID) }))
	clock.RunUntil(sim.Time(sec(30)))
	if len(got) != len(e.History()) {
		t.Fatalf("listener saw %d batches, history has %d", len(got), len(e.History()))
	}
	for i := 1; i < len(got); i++ {
		if got[i] != got[i-1]+1 {
			t.Fatalf("batch completion order broken: %v", got)
		}
	}
}

func TestStopHaltsEngine(t *testing.T) {
	clock, e := newEngine(t, nil)
	clock.At(sim.Time(sec(12)), e.Stop)
	clock.RunUntil(sim.Time(sec(100)))
	n := len(e.History())
	if n > 3 {
		t.Fatalf("%d batches after Stop at 12s", n)
	}
	if e.TotalRecords() > 13*1000 {
		t.Fatalf("producer kept running after Stop: %d records", e.TotalRecords())
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []BatchStats {
		clock, e := newEngine(t, func(o *Options) {
			o.Workload = workload.NewLogisticRegression()
			o.Trace = ratetrace.NewUniformBand(7000, 13000, 5*time.Second, rng.New(42))
			o.Initial = Config{BatchInterval: 10 * time.Second, Executors: 10}
			o.Seed = rng.New(42)
		})
		clock.RunUntil(sim.Time(sec(300)))
		return e.History()
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("history lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Records != b[i].Records || a[i].ProcessingTime != b[i].ProcessingTime || a[i].DoneAt != b[i].DoneAt {
			t.Fatalf("run diverged at batch %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestBoundsHelpers(t *testing.T) {
	b := DefaultBounds()
	clamped := b.Clamp(Config{BatchInterval: time.Hour, Executors: -3})
	if clamped.BatchInterval != b.MaxInterval || clamped.Executors != b.MinExecutors {
		t.Fatalf("Clamp=%v", clamped)
	}
	if !b.Contains(Config{BatchInterval: 10 * time.Second, Executors: 10}) {
		t.Error("Contains rejected interior point")
	}
	if b.Contains(Config{BatchInterval: 50 * time.Second, Executors: 10}) {
		t.Error("Contains accepted exterior point")
	}
}

func TestParallelismCappedByPartitions(t *testing.T) {
	// With 2 partitions, 16 executors must not process faster than ~2-way
	// parallelism allows.
	clock, e := newEngine(t, func(o *Options) {
		o.Partitions = 2
		o.Workload = workload.NewLogisticRegression()
		o.Trace = ratetrace.Constant{Rate: 2000}
		o.Initial = Config{BatchInterval: 30 * time.Second, Executors: 16}
	})
	clock.RunUntil(sim.Time(sec(200)))
	h := e.History()
	if len(h) == 0 {
		t.Fatal("no batches")
	}
	// Work per batch ≈ 2000·30·0.0004·iter ≈ 24-48 ref-sec; at parallelism
	// 2 the work term alone is ≥ 12s. With 16-way it would be ~1.5-3s.
	if h[0].ProcessingTime < 10*time.Second {
		t.Fatalf("partition cap not applied: %v", h[0].ProcessingTime)
	}
}

// BenchmarkEngineHour measures simulating one virtual hour of a WordCount
// stream on a fixed configuration, the unit of work behind every
// experiment.
func BenchmarkEngineHour(b *testing.B) { benchEngineHour(b, false, false) }

// BenchmarkEngineHourObserved is BenchmarkEngineHour with a metrics
// registry attached and the tracer off.
func BenchmarkEngineHourObserved(b *testing.B) { benchEngineHour(b, true, false) }

// BenchmarkEngineHourTraced is BenchmarkEngineHourObserved with a tracer
// attached too, as an observed zoo job runs.
func BenchmarkEngineHourTraced(b *testing.B) { benchEngineHour(b, true, true) }

func benchEngineHour(b *testing.B, observed, traced bool) {
	for i := 0; i < b.N; i++ {
		clock := sim.NewClock()
		seed := rng.New(uint64(i + 1))
		wl := workload.NewWordCount()
		lo, hi := wl.RateBand()
		var reg *metrics.Registry
		if observed {
			reg = metrics.NewRegistry()
		}
		var tr *tracing.Tracer
		if traced {
			tr = tracing.New(clock, 0)
		}
		eng, err := New(clock, Options{
			Workload: wl,
			Trace:    ratetrace.NewUniformBand(lo, hi, 5*time.Second, seed.Split("t")),
			Seed:     seed.Split("e"),
			Initial:  Config{BatchInterval: 10 * time.Second, Executors: 12},
			Metrics:  reg,
			Tracer:   tr,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := eng.Start(); err != nil {
			b.Fatal(err)
		}
		clock.RunUntil(sim.Time(time.Hour))
		if len(eng.History()) == 0 {
			b.Fatal("no batches")
		}
	}
}

// BenchmarkBatchCutExecute times one batch's cut and execution with no
// producer tick: one interval's records are sent to the topic, then the cut
// fetches them, the attempt models the processing time, and the completion
// commits and records the batch. The next cut the cut schedules is
// canceled, so each op is exactly one batch.
func BenchmarkBatchCutExecute(b *testing.B) {
	clock := sim.NewClock()
	wl := workload.NewWordCount()
	lo, hi := wl.RateBand()
	e, err := New(clock, Options{
		Workload: wl,
		Trace:    ratetrace.Constant{Rate: (lo + hi) / 2},
		Seed:     rng.New(1),
		Initial:  Config{BatchInterval: 10 * time.Second, Executors: 12},
	})
	if err != nil {
		b.Fatal(err)
	}
	e.cutFn = e.cutBatch
	perBatch := int64((lo + hi) / 2 * 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.prod.SendCount(perBatch)
		e.cutBatch()
		clock.Cancel(e.cutEvent)
		for e.busy {
			clock.Step()
		}
	}
	b.StopTimer()
	if h := e.History(); len(h) != b.N || h[len(h)-1].Records != perBatch {
		b.Fatalf("%d batches, want %d of %d records", len(h), b.N, perBatch)
	}
}
