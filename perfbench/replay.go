package main

import (
	"fmt"
	"time"

	"nostop/internal/broker"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// A pattern is a workload's call pattern into the leaf layers, per
// simulated hour of one clock, read from a real round's public accessors.
// The replays below drive the leaf layers' public functions with it.
type pattern struct {
	depth           int     // event-queue depth of one clock
	eventsPerHour   float64 // sim events
	traces          func(seed *rng.Stream) []ratetrace.Trace
	traceTick       time.Duration // RecordsIn period per trace
	sendTick        time.Duration // SendCount period per topic
	topics          int
	partitions      int // per topic
	tenantTopics    bool
	recordsPerHour  float64 // records produced, all topics
	batchesPerHour  float64 // batch cuts, all topics
	addsPerHour     float64 // metrics Counter.Add (0 when unobserved)
	observesPerHour float64 // metrics Histogram.Observe (0 when unobserved)
	labels          []metrics.Label
	tracerPerHour   float64 // tracer events (0 without a tracer)
}

// sink keeps replayed results live so the compiler cannot drop the calls.
var sink float64

// replayResult is one replay's cost per call and the counts its own
// objects report, per simulated hour, for the drift test.
type replayResult struct {
	nsPerOp     float64
	allocsPerOp float64
	perHour     float64 // the replayed objects' own count per simulated hour
}

// replayTarget is how many calls one replay repetition makes; replayReps
// repetitions are made and the fastest reported, since interference from
// other processes only ever adds time.
const (
	replayTarget = 200000
	replayReps   = 5
)

// span of simulated time that makes about target calls at perHour.
func replaySpan(perHour float64, target int) time.Duration {
	if perHour <= 0 {
		return time.Hour
	}
	d := time.Duration(float64(target) / perHour * float64(time.Hour))
	if d < time.Second {
		d = time.Second
	}
	if d > 10*time.Hour {
		d = 10 * time.Hour
	}
	return d
}

// timed runs fn and returns its wall time and heap allocations.
func timed(fn func()) (time.Duration, uint64) {
	before := readRuntime()
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	return elapsed, readRuntime().sub(before).allocObjects
}

func perCall(elapsed time.Duration, allocs uint64, calls, simHours, count float64) replayResult {
	if calls <= 0 {
		return replayResult{}
	}
	return replayResult{
		nsPerOp:     float64(elapsed.Nanoseconds()) / calls,
		allocsPerOp: float64(allocs) / calls,
		perHour:     count / simHours,
	}
}

// replaySim schedules depth self-rescheduling event chains whose combined
// rate is the workload's events per hour and steps the clock through d.
func replaySim(p pattern, d time.Duration) replayResult {
	depth := p.depth
	if depth < 1 {
		depth = 1
	}
	rate := p.eventsPerHour
	if rate <= 0 {
		rate = 36000
	}
	clock := sim.NewClock()
	period := time.Duration(float64(depth) / rate * float64(time.Hour))
	for i := 0; i < depth; i++ {
		var fn func()
		fn = func() { clock.After(period, fn) }
		clock.At(sim.Time(period*time.Duration(i)/time.Duration(depth)), fn)
	}
	elapsed, allocs := timed(func() {
		for clock.Step() && clock.Now() < sim.Time(d) {
		}
	})
	n := float64(clock.Executed())
	return perCall(elapsed, allocs, n, d.Hours(), n)
}

// replayRecordsIn calls ratetrace.RecordsIn on the workload's trace kinds
// once per trace tick over d.
func replayRecordsIn(p pattern, d time.Duration) replayResult {
	traces := p.traces(rng.New(1).Split("perfbench/replay/ratetrace"))
	ticks := int(d / p.traceTick)
	total := 0.0
	elapsed, allocs := timed(func() {
		for k := 0; k < ticks; k++ {
			from, to := sim.Time(k)*sim.Time(p.traceTick), sim.Time(k+1)*sim.Time(p.traceTick)
			for _, tr := range traces {
				total += ratetrace.RecordsIn(tr, from, to)
			}
		}
	})
	sink += total
	// The drift check is calls per simulated hour of one trace.
	calls := float64(ticks * len(traces))
	return perCall(elapsed, allocs, calls, d.Hours()*float64(len(traces)), calls)
}

// newReplayBus creates the workload's topics on a fresh bus.
func newReplayBus(p pattern) (*broker.Bus, []string, error) {
	bus, err := broker.NewBus([]int{1, 2, 3, 4})
	if err != nil {
		return nil, nil, err
	}
	topics := max(p.topics, 1)
	parts := max(p.partitions, 1)
	names := make([]string, topics)
	for i := range names {
		names[i] = fmt.Sprintf("t%03d", i)
		if p.tenantTopics {
			_, err = bus.CreateTenantTopic(names[i], names[i], parts, 0)
		} else {
			_, err = bus.CreateTopic(names[i], parts, 0)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return bus, names, nil
}

// replaySend calls Producer.SendCount once per producer tick per topic over
// d, at the workload's records per tick.
func replaySend(p pattern, d time.Duration) (replayResult, error) {
	bus, names, err := newReplayBus(p)
	if err != nil {
		return replayResult{}, err
	}
	prods := make([]*broker.Producer, len(names))
	for i, n := range names {
		if prods[i], err = bus.NewProducer(n); err != nil {
			return replayResult{}, err
		}
	}
	ticks := int(d / p.sendTick)
	perTick := p.recordsPerHour / float64(len(names)) / (float64(time.Hour) / float64(p.sendTick))
	carry := make([]float64, len(names))
	elapsed, allocs := timed(func() {
		for k := 0; k < ticks; k++ {
			for i, prod := range prods {
				carry[i] += perTick
				n := int64(carry[i])
				carry[i] -= float64(n)
				prod.SendCount(n)
			}
		}
	})
	var produced int64
	for _, n := range names {
		t, _ := bus.Topic(n) // created by newReplayBus
		produced += t.TotalEnd()
	}
	return perCall(elapsed, allocs, float64(ticks*len(names)), d.Hours(), float64(produced)), nil
}

// replayFetchCommit cuts the workload's batches: each cut fetches what the
// producers appended since the last cut, commits its ranges and releases
// the chunk, as the engine does. Only the fetch/commit/release is timed.
func replayFetchCommit(p pattern, d time.Duration) (replayResult, error) {
	bus, names, err := newReplayBus(p)
	if err != nil {
		return replayResult{}, err
	}
	rate := p.batchesPerHour
	if rate <= 0 {
		rate = 360
	}
	cutsPerTopic := int(rate * d.Hours() / float64(len(names)))
	perCut := p.recordsPerHour / rate
	prods := make([]*broker.Producer, len(names))
	groups := make([]*broker.ConsumerGroup, len(names))
	for i, n := range names {
		if prods[i], err = bus.NewProducer(n); err != nil {
			return replayResult{}, err
		}
		if groups[i], err = bus.NewConsumerGroup(n); err != nil {
			return replayResult{}, err
		}
	}
	overhead := clockReadCost()
	var busy time.Duration
	carry := 0.0
	before := readRuntime()
	for k := 0; k < cutsPerTopic; k++ {
		for i, g := range groups {
			carry += perCut
			n := int64(carry)
			carry -= float64(n)
			prods[i].SendCount(n)
			t0 := time.Now()
			if c := g.FetchChunk(0); c != nil {
				g.Commit(c.Ranges)
				g.Release(c)
			}
			busy += time.Since(t0) - overhead
		}
	}
	// SendCount allocates nothing (the broker's hot-path contract), so the
	// allocations are the cuts'.
	allocs := readRuntime().sub(before).allocObjects
	cuts := float64(cutsPerTopic * len(names))
	return perCall(busy, allocs, cuts, d.Hours(), cuts), nil
}

// clockReadCost is the cost of one time.Now/time.Since pair, subtracted
// from per-call timings that cannot be batched.
func clockReadCost() time.Duration {
	const n = 20000
	start := time.Now()
	var acc time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		acc += time.Since(t0)
	}
	sink += acc.Seconds()
	return time.Since(start) / n
}

// replayMetrics calls Counter.Add and Histogram.Observe with the
// workload's label set.
func replayMetrics(p pattern) (add, observe replayResult) {
	reg := metrics.NewRegistry()
	c := reg.Counter("nostop_broker_records_produced_total", "Records appended to broker partition logs", p.labels...)
	h := reg.Histogram("nostop_batch_e2e_delay_seconds", "End-to-end record delay", metrics.DelaySecondsBuckets(), p.labels...)
	const n = replayTarget
	elapsed, allocs := timed(func() {
		for i := 0; i < n; i++ {
			c.Add(float64(i & 1023))
		}
	})
	add = perCall(elapsed, allocs, n, 1, n)
	elapsed, allocs = timed(func() {
		for i := 0; i < n; i++ {
			h.Observe(float64(i%700) * 0.5)
		}
	})
	observe = perCall(elapsed, allocs, n, 1, n)
	return add, observe
}

// replayTracing records the engine's per-batch trace events (cut instant,
// queue and lag counters, fetch instant, attempt and queue spans) at the
// workload's tracer events per hour over d.
func replayTracing(p pattern, d time.Duration) replayResult {
	rate := p.tracerPerHour
	if rate <= 0 {
		rate = 8 * max(p.batchesPerHour, 360)
	}
	clock := sim.NewClock()
	tr := tracing.New(clock, 0)
	n := int(rate * d.Hours())
	elapsed, allocs := timed(func() {
		for i := 0; i < n; i++ {
			b := int64(i / 8)
			switch i % 8 {
			case 0:
				tr.Instant(2, 1, "engine", fmt.Sprintf("cut batch %d", b), tracing.Args{"records": b * 1000, "queue": 1, "faulty": false})
			case 1, 6:
				tr.Counter(2, "queue", tracing.Args{"batches": i & 7})
			case 2, 7:
				tr.Counter(2, "lag", tracing.Args{"records": b * 10})
			case 3:
				tr.Instant(1, 1, "broker", "fetch", tracing.Args{"records": b * 1000, "ranges": 48})
			case 4:
				tr.Span(2, 2, "engine", fmt.Sprintf("batch %d", b), sim.Time(b)*sim.Time(time.Second), 800*time.Millisecond,
					tracing.Args{"attempt": 1, "records": b * 1000, "tasks": 25, "failed": false})
			case 5:
				tr.Span(2, 1, "engine", fmt.Sprintf("queued batch %d", b), sim.Time(b)*sim.Time(time.Second), 200*time.Millisecond,
					tracing.Args{"records": b * 1000})
			}
		}
	})
	return perCall(elapsed, allocs, float64(n), d.Hours(), float64(tr.Len()))
}

// replays is every leaf-layer replay of one pattern.
type replays struct {
	sim, recordsIn, send, fetchCommit, add, observe, tracing replayResult
}

// runReplays repeats each replay and keeps the fastest repetition.
func runReplays(p pattern, rec *recorder) (replays, error) {
	var out replays
	pick := func(name, layer string, dst *replayResult, fn func() (replayResult, error)) error {
		var rs []replayResult
		for i := 0; i < replayReps; i++ {
			id := rec.begin("replay "+name, layer, -1, 1)
			r, err := fn()
			rec.end(id)
			if err != nil {
				return err
			}
			rs = append(rs, r)
		}
		*dst = fastest(rs)
		return nil
	}
	noErr := func(fn func() replayResult) func() (replayResult, error) {
		return func() (replayResult, error) { return fn(), nil }
	}
	if err := pick("sim", layerSim, &out.sim, noErr(func() replayResult {
		return replaySim(p, replaySpan(p.eventsPerHour, replayTarget))
	})); err != nil {
		return out, err
	}
	tracesPerHour := float64(time.Hour/p.traceTick) * float64(len(p.traces(rng.New(1))))
	if err := pick("ratetrace", layerRatetrace, &out.recordsIn, noErr(func() replayResult {
		return replayRecordsIn(p, replaySpan(tracesPerHour, replayTarget))
	})); err != nil {
		return out, err
	}
	sendsPerHour := float64(time.Hour/p.sendTick) * float64(max(p.topics, 1))
	if err := pick("broker send", layerBroker, &out.send, func() (replayResult, error) {
		return replaySend(p, replaySpan(sendsPerHour, replayTarget))
	}); err != nil {
		return out, err
	}
	if err := pick("broker fetch/commit", layerBroker, &out.fetchCommit, func() (replayResult, error) {
		return replayFetchCommit(p, replaySpan(max(p.batchesPerHour, 360), replayTarget/10))
	}); err != nil {
		return out, err
	}
	var adds, observes []replayResult
	for i := 0; i < replayReps; i++ {
		id := rec.begin("replay metrics", layerMetrics, -1, 1)
		a, o := replayMetrics(p)
		rec.end(id)
		adds, observes = append(adds, a), append(observes, o)
	}
	out.add, out.observe = fastest(adds), fastest(observes)
	err := pick("tracing", layerTracing, &out.tracing, noErr(func() replayResult {
		return replayTracing(p, replaySpan(max(p.tracerPerHour, 8*max(p.batchesPerHour, 360)), replayTarget/4))
	}))
	return out, err
}

// fastest returns the repetition with the lowest cost per call.
func fastest(rs []replayResult) replayResult {
	best := rs[0]
	for _, r := range rs[1:] {
		if r.nsPerOp < best.nsPerOp {
			best = r
		}
	}
	return best
}
