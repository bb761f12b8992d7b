package main

import (
	"fmt"
	"io"
)

// layerMetric is one per-layer metric of a traced run. Text-only metrics
// are printed but left out of the JSON line: they are wall times of calls
// that only some workloads make, and read 0 on the others.
type layerMetric struct {
	name     string
	value    float64
	unit     string
	textOnly bool
}

// perLayer turns a traced run into per-layer metrics. Counts come from the
// program's public accessors, costs per call from the leaf-layer replays,
// and the remaining wall time from the benchmark's own spans: a layer's
// time in the traced rounds is its spans' self time plus, for the layers
// the simulation calls inline, its call count times its replayed cost per
// call. The engine is charged whatever of the simulation's time is left.
func perLayer(def workloadDef, b bench, ref *round, plain, traced []*round, tw *round, rec *recorder, out io.Writer) ([]layerMetric, error) {
	var c counts
	var rt rtSample
	simHours := 0.0
	for _, r := range traced {
		for k := 0; k < r.repeats; k++ {
			c.add(r.c)
		}
		rt = rt.add(r.rt)
		simHours += r.simHours
	}
	n := float64(len(traced))
	p := b.pattern(ref)
	rp, err := runReplays(p, rec)
	if err != nil {
		return nil, err
	}
	self, total := rec.selfTimes("round")

	const ns = 1e-9
	var adds, observes float64
	if c.observed > 0 {
		adds, observes = c.ticks*float64(c.partitions)+12*float64(c.batches), 5*float64(c.batches)
	}
	inline := map[string]float64{
		layerSim:       float64(c.events) * rp.sim.nsPerOp * ns,
		layerRatetrace: c.traceCalls * rp.recordsIn.nsPerOp * ns,
		layerBroker:    c.ticks*rp.send.nsPerOp*ns + float64(c.batches)*rp.fetchCommit.nsPerOp*ns,
		layerMetrics:   (adds*rp.add.nsPerOp + observes*rp.observe.nsPerOp) * ns,
		layerTracing:   float64(c.tracerEvents) * rp.tracing.nsPerOp * ns,
		// Each /status poll sorts the history so far: on average half the
		// final history the benchmark timed.
		layerListener: c.statusPolls * c.statusSec / n / 2,
		layerRuntime:  rt.gcShare() * total,
	}
	times := map[string]float64{}
	engine := self[layerEngine]
	for _, l := range layerOrder {
		times[l] = self[l] + inline[l]
		if l != layerEngine {
			engine -= inline[l]
		}
	}
	times[layerEngine] = engine

	share := func(l string) float64 {
		if total <= 0 {
			return 0
		}
		return times[l] / total
	}
	fmt.Fprintf(out, "layers: %.3f worker-s in %d traced rounds (%s spans plus counts x replayed cost)\n", total, len(traced), def.name)
	for _, l := range layerOrder {
		fmt.Fprintf(out, "layer %-9s self %9.4f s  share %7.4f\n", l, times[l], share(l))
	}

	perRound := func(x float64) float64 { return x / n }
	perHour := func(x float64) float64 { return x / simHours }
	perObserved := func(x float64) float64 {
		if c.observed == 0 {
			return 0
		}
		return x / float64(c.observed)
	}
	perTraced := func(x float64) float64 {
		if c.traced == 0 {
			return 0
		}
		return x / float64(c.traced)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	observeOverhead := 0.0
	if c.observed > 0 && tw != nil && tw.execWall > 0 {
		var walls []float64
		for _, r := range plain {
			walls = append(walls, r.execWall)
		}
		observeOverhead = (quantile(walls, 0.5) - tw.execWall) / tw.execWall
	}
	scaling := 0.0
	if b.workers() > 1 && tw != nil && tw.wall > 0 {
		scaling = endToEnd(plain, nil).rate / (float64(b.workers()) * tw.simHours / tw.wall)
	}
	// Behaviour counts are the reference round's, once per app-run.
	rc, refHours := ref.c, ref.simHours/float64(ref.repeats)
	ms := []layerMetric{
		{"sim.events_per_sim_hour", perHour(float64(c.events)), "events/app-h", false},
		{"sim.queue_depth", float64(c.depth), "events", false},
		{"sim.step_ns", rp.sim.nsPerOp, "ns", false},
		{"sim.step_allocs", rp.sim.allocsPerOp, "allocs/op", false},
		{"ratetrace.records_in_ns", rp.recordsIn.nsPerOp, "ns", false},
		{"ratetrace.records_in_allocs", rp.recordsIn.allocsPerOp, "allocs/op", false},
		{"broker.send_ns", rp.send.nsPerOp, "ns", false},
		{"broker.send_allocs", rp.send.allocsPerOp, "allocs/op", false},
		{"broker.fetch_commit_ns", rp.fetchCommit.nsPerOp, "ns", false},
		{"broker.fetch_commit_allocs", rp.fetchCommit.allocsPerOp, "allocs/op", false},
		{"metrics.counter_add_ns", rp.add.nsPerOp, "ns", false},
		{"metrics.counter_add_allocs", rp.add.allocsPerOp, "allocs/op", false},
		{"metrics.observe_ns", rp.observe.nsPerOp, "ns", false},
		{"metrics.observe_allocs", rp.observe.allocsPerOp, "allocs/op", false},
		{"metrics.observe_overhead", observeOverhead, "ratio", false},
		{"metrics.exposition_ms", perObserved(c.expoSec) * 1e3, "ms", true},
		{"metrics.exposition_kb", perObserved(float64(c.expoBytes)) / 1e3, "kB", false},
		{"tracing.events_per_sim_hour", perHour(float64(c.tracerEvents)), "events/app-h", false},
		{"tracing.dropped", perRound(float64(c.tracerDrops)), "events", false},
		{"tracing.event_ns", rp.tracing.nsPerOp, "ns", false},
		{"tracing.event_allocs", rp.tracing.allocsPerOp, "allocs/op", false},
		{"tracing.write_ms", perTraced(c.traceSec) * 1e3, "ms", true},
		{"tracing.kb", perTraced(float64(c.traceBytes)) / 1e3, "kB", false},
		{"listener.status_us", perRound(c.statusSec) * 1e6, "us", true},
		{"listener.history_len", perRound(float64(c.historyLen)), "batches", false},
		{"service.batches_us", perRound(c.batchesSec) * 1e6, "us", true},
		{"service.rpc_attempts_per_sim_hour", perHour(c.rpcAttempts), "1/app-h", false},
		{"service.rpc_success_ratio", ratio(c.rpcAttempts-c.rpcFailures, c.rpcAttempts), "ratio", false},
		{"service.rpc_retries", perRound(c.rpcRetries), "count", false},
		{"service.rpc_fastfails", perRound(c.rpcFastfails), "count", false},
		{"fleet.worker_idle_share", share(layerFleet), "ratio", false},
		{"fleet.scaling_efficiency", scaling, "ratio", false},
		{"runtime.gc_cpu_share", rt.gcShare(), "ratio", false},
		{"runtime.allocs_per_sim_hour", perHour(float64(rt.allocObjects)), "allocs/app-h", false},
		{"runtime.gc_cycles", perRound(float64(rt.gcCycles)), "count", false},
		{"engine.unattributed_share", share(layerEngine), "ratio", false},
		{"engine.batches_per_sim_hour", float64(rc.batches) / refHours, "batches/app-h", false},
		{"engine.retry_ratio", ratio(float64(rc.batches), float64(rc.batches+rc.retries)+float64(rc.failed)), "ratio", false},
		{"engine.failed_batches", float64(rc.failed), "count", false},
		{"engine.shed_events", float64(rc.shed), "count", false},
		{"broker.redelivered_per_sim_hour", float64(rc.redelivered) / refHours, "records/app-h", false},
		{"controllers.reconfigs_per_sim_hour", float64(rc.reconfigs) / refHours, "1/app-h", false},
		{"tenant.alloc_rounds", float64(rc.allocRounds), "count", false},
		{"tenant.regrants", float64(rc.regrants), "count", false},
		{"tenant.preemptions", float64(rc.preemptions), "count", false},
		{"trace.overhead", endToEnd(plain, nil).rate/endToEnd(traced, nil).rate - 1, "ratio", false},
	}
	for _, l := range layerOrder {
		ms = append(ms, layerMetric{"share." + l, share(l), "ratio", false})
	}
	fmt.Fprintf(out, "replay pattern: depth %d, %.0f events/h, %.0f records/h, %.1f batches/h, %d topics x %d partitions, %.0f adds/h, %.0f tracer events/h (per clock-hour)\n",
		p.depth, p.eventsPerHour, p.recordsPerHour, p.batchesPerHour, p.topics, p.partitions, p.addsPerHour, p.tracerPerHour)
	for _, m := range ms {
		note := ""
		if m.textOnly {
			note = "  (text only)"
		}
		fmt.Fprintf(out, "per-layer: %s %.6g %s%s\n", m.name, m.value, m.unit, note)
	}
	var js []layerMetric
	for _, m := range ms {
		if !m.textOnly {
			js = append(js, m)
		}
	}
	return js, nil
}
