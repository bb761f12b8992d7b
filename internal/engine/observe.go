// Observability instrumentation for the engine: a nil-safe bundle of
// metrics instruments and trace lanes fed from the engine's event handlers
// and, via broker.Observer, from the message bus. Everything here is
// passive — no randomness, no event scheduling, no engine-state mutation —
// so enabling observability cannot perturb a seeded run (the determinism
// contract's byte-identical-history guarantee extends to instrumented
// runs).
package engine

import (
	"fmt"
	"time"

	"nostop/internal/broker"
	"nostop/internal/metrics"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// Trace lanes (Chrome trace_event pid/tid pairs). Exported so the other
// instrumented layers (controller, fault injector, commands) share one
// timeline layout.
const (
	// PidBroker is the message-bus process lane.
	PidBroker = 1
	// PidEngine is the streaming-engine process lane.
	PidEngine = 2
	// PidController is the NoStop controller process lane.
	PidController = 3
	// PidFaults is the fault-injector process lane.
	PidFaults = 4

	// TidConsumer is the broker lane for consumer-side activity.
	TidConsumer = 1
	// TidReceiver is the engine lane for batch cuts and queue residence.
	TidReceiver = 1
	// TidExecutors is the engine lane for task-wave execution attempts.
	TidExecutors = 2
	// TidConfig is the engine lane for reconfiguration events.
	TidConfig = 3
)

// obsState bundles the engine's metric instruments and tracer. A nil
// *obsState (observability disabled) turns every method into a no-op.
type obsState struct {
	tr *tracing.Tracer
	// traceOn gates trace emission at the call sites: constructing the
	// tracing.Args map (and Sprintf'ing span names) allocates even when the
	// tracer is nil, so the metrics-only configuration checks this flag
	// before building any trace payload. Keeps the no-trace hot path
	// allocation-free (enforced by TestAllocsObservation).
	traceOn bool

	recordsProduced  *metrics.Counter
	recordsFetched   *metrics.Counter
	recordsCommitted *metrics.Counter
	redeliveries     *metrics.Counter
	partitionOutages *metrics.Counter
	brokerLag        *metrics.Gauge
	committedLag     *metrics.Gauge

	batchesCut       *metrics.Counter
	batchesCompleted *metrics.Counter
	batchesFailed    *metrics.Counter
	recordsDropped   *metrics.Counter
	taskRetries      *metrics.Counter
	speculations     *metrics.Counter
	shedEvents       *metrics.Counter
	tasksDispatched  *metrics.Counter
	reconfigs        *metrics.Counter

	queueLen      *metrics.Gauge
	liveExecutors *metrics.Gauge
	cfgInterval   *metrics.Gauge
	cfgExecutors  *metrics.Gauge

	procHist    *metrics.Histogram
	schedHist   *metrics.Histogram
	e2eHist     *metrics.Histogram
	totalHist   *metrics.Histogram
	recordsHist *metrics.Histogram
}

// newObsState registers the engine's instruments. Returns nil when both
// sinks are absent, which disables all instrumentation at a single check.
func newObsState(reg *metrics.Registry, tr *tracing.Tracer) *obsState {
	if reg == nil && tr == nil {
		return nil
	}
	o := &obsState{
		tr:      tr,
		traceOn: tr != nil,

		recordsProduced:  reg.Counter("nostop_broker_records_produced_total", "Records appended to broker partition logs"),
		recordsFetched:   reg.Counter("nostop_broker_records_fetched_total", "Records consumed from the broker by the receiver"),
		recordsCommitted: reg.Counter("nostop_broker_records_committed_total", "Records durably committed after successful batch processing"),
		redeliveries:     reg.Counter("nostop_broker_redeliveries_total", "Records re-fetched after partition-outage rewinds (at-least-once duplicates)"),
		partitionOutages: reg.Counter("nostop_broker_partition_outages_total", "Partition leader outages observed"),
		brokerLag:        reg.Gauge("nostop_broker_lag_records", "Unfetched records across partitions (consumer lag)"),
		committedLag:     reg.Gauge("nostop_broker_committed_lag_records", "Records produced but not yet durably processed"),

		batchesCut:       reg.Counter("nostop_batches_cut_total", "Batches cut by the receiver at batch-interval boundaries"),
		batchesCompleted: reg.Counter("nostop_batches_completed_total", "Batches that completed processing successfully"),
		batchesFailed:    reg.Counter("nostop_batches_failed_total", "Batches abandoned after exhausting the task retry budget"),
		recordsDropped:   reg.Counter("nostop_records_dropped_total", "Records rejected by the ingest cap (back-pressure or load shedding)"),
		taskRetries:      reg.Counter("nostop_task_retries_total", "Transient task-failure retries executed"),
		speculations:     reg.Counter("nostop_speculations_total", "Batches speculatively re-executed to dodge stragglers"),
		shedEvents:       reg.Counter("nostop_shed_events_total", "Emergency load-shedding episodes triggered"),
		tasksDispatched:  reg.Counter("nostop_tasks_dispatched_total", "Tasks dispatched to the executor pool (one per receiver block)"),
		reconfigs:        reg.Counter("nostop_reconfigurations_total", "Runtime configuration changes applied"),

		queueLen:      reg.Gauge("nostop_batch_queue_length", "Batches waiting in the scheduler queue"),
		liveExecutors: reg.Gauge("nostop_executors_live", "Currently allocated executors (falls below the configured count after node failures)"),
		cfgInterval:   reg.Gauge("nostop_config_batch_interval_seconds", "Live batch interval"),
		cfgExecutors:  reg.Gauge("nostop_config_executors", "Configured executor count"),

		procHist:    reg.Histogram("nostop_batch_processing_seconds", "Batch processing time (successful attempt)", metrics.DelaySecondsBuckets()),
		schedHist:   reg.Histogram("nostop_batch_scheduling_delay_seconds", "Batch scheduling delay (queue wait including retry backoffs)", metrics.DelaySecondsBuckets()),
		e2eHist:     reg.Histogram("nostop_batch_e2e_delay_seconds", "End-to-end record delay (half interval + scheduling + processing)", metrics.DelaySecondsBuckets()),
		totalHist:   reg.Histogram("nostop_batch_total_delay_seconds", "Batch total delay (processing + scheduling), the Eq. 3 measured quantity", metrics.DelaySecondsBuckets()),
		recordsHist: reg.Histogram("nostop_batch_records", "Records per batch", metrics.RecordCountBuckets()),
	}
	tr.NameProcess(PidBroker, "broker")
	tr.NameThread(PidBroker, TidConsumer, "consumer")
	tr.NameProcess(PidEngine, "streaming-engine")
	tr.NameThread(PidEngine, TidReceiver, "receiver/queue")
	tr.NameThread(PidEngine, TidExecutors, "executor-pool")
	tr.NameThread(PidEngine, TidConfig, "reconfiguration")
	return o
}

// OnAppend implements broker.Observer (producer→partition appends).
//
//nostop:hotpath
func (o *obsState) OnAppend(topic string, partition int, n int64) {
	if o == nil {
		return
	}
	o.recordsProduced.Add(float64(n))
}

// OnFetch implements broker.Observer (receiver pull). One fetch happens per
// batch cut, so a trace instant per call stays cheap.
//
//nostop:hotpath
func (o *obsState) OnFetch(topic string, n int64, ranges []broker.OffsetRange) {
	if o == nil {
		return
	}
	o.recordsFetched.Add(float64(n))
	if o.traceOn {
		o.traceFetch(n, len(ranges))
	}
}

// traceFetch emits the fetch instant. Like every trace* helper below it is
// opt-in (traceOn) and outside the zero-alloc budget that
// TestAllocsObservation pins on the metrics-only path.
//
//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (o *obsState) traceFetch(n int64, ranges int) {
	o.tr.Instant(PidBroker, TidConsumer, "broker", "fetch",
		tracing.Args{"records": n, "ranges": ranges})
}

// OnCommit implements broker.Observer (offset-range commit).
//
//nostop:hotpath
func (o *obsState) OnCommit(topic string, n int64, ranges []broker.OffsetRange) {
	if o == nil {
		return
	}
	o.recordsCommitted.Add(float64(n))
}

// OnRewind implements broker.Observer (outage-triggered replay).
//
//nostop:hotpath
func (o *obsState) OnRewind(topic string, partition int, redelivered int64) {
	if o == nil {
		return
	}
	o.redeliveries.Add(float64(redelivered))
	if o.traceOn {
		o.traceRewind(partition, redelivered)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (o *obsState) traceRewind(partition int, redelivered int64) {
	o.tr.Instant(PidBroker, TidConsumer, "broker", "rewind",
		tracing.Args{"partition": partition, "redelivered": redelivered})
}

// OnOutage implements broker.Observer (partition leader down/up).
//
//nostop:hotpath
func (o *obsState) OnOutage(topic string, partition int, down bool) {
	if o == nil {
		return
	}
	if down {
		o.partitionOutages.Inc()
	}
	if o.traceOn {
		o.traceOutage(partition, down)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (o *obsState) traceOutage(partition int, down bool) {
	// Two constant-name call sites rather than a computed name: the
	// obscontract analyzer can then prove the cardinality bound.
	if down {
		o.tr.Instant(PidBroker, TidConsumer, "broker", "partition-outage", tracing.Args{"partition": partition})
	} else {
		o.tr.Instant(PidBroker, TidConsumer, "broker", "partition-restored", tracing.Args{"partition": partition})
	}
}

// onBatchCut records a batch entering the queue: the receiver drained the
// topic, cut blocks into tasks, and enqueued the batch.
func (e *Engine) onBatchCut(b *batch) {
	o := e.obs
	if o == nil {
		return
	}
	o.batchesCut.Inc()
	o.recordsHist.Observe(float64(b.records))
	o.queueLen.Set(float64(len(e.queue)))
	o.brokerLag.Set(float64(e.group.Lag()))
	o.committedLag.Set(float64(e.group.CommittedLag()))
	if o.traceOn {
		e.traceBatchCut(b)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceBatchCut(b *batch) {
	o := e.obs
	//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
	o.tr.Instant(PidEngine, TidReceiver, "engine", fmt.Sprintf("cut batch %d", b.id),
		tracing.Args{"records": b.records, "queue": len(e.queue), "faulty": b.faulty})
	o.tr.Counter(PidEngine, "queue", tracing.Args{"batches": len(e.queue)})
	o.tr.Counter(PidEngine, "lag", tracing.Args{"records": e.group.Lag()})
}

// onAttempt records one resolved execution attempt as a span on the
// executor lane (emitted at completion, when the duration is known).
func (e *Engine) onAttempt(b *batch, start sim.Time, proc time.Duration, failed bool) {
	o := e.obs
	if o == nil {
		return
	}
	o.tasksDispatched.Add(float64(b.tasks))
	if o.traceOn {
		e.traceAttempt(b, start, proc, failed)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceAttempt(b *batch, start sim.Time, proc time.Duration, failed bool) {
	//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
	e.obs.tr.Span(PidEngine, TidExecutors, "engine", fmt.Sprintf("batch %d", b.id), start, proc,
		tracing.Args{"attempt": b.attempts, "records": b.records, "tasks": b.tasks, "failed": failed})
}

// onRetry records a transient task-failure retry and its backoff.
func (e *Engine) onRetry(b *batch, backoff time.Duration) {
	o := e.obs
	if o == nil {
		return
	}
	o.taskRetries.Inc()
	if o.traceOn {
		e.traceRetry(b, backoff)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceRetry(b *batch, backoff time.Duration) {
	//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
	e.obs.tr.Instant(PidEngine, TidExecutors, "engine", fmt.Sprintf("retry batch %d", b.id),
		tracing.Args{"attempt": b.attempts, "backoff_ms": backoff.Milliseconds()})
}

// onSpeculation records a speculative re-execution decision.
func (e *Engine) onSpeculation(b *batch) {
	o := e.obs
	if o == nil {
		return
	}
	o.speculations.Inc()
	if o.traceOn {
		e.traceSpeculation(b)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceSpeculation(b *batch) {
	//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
	e.obs.tr.Instant(PidEngine, TidExecutors, "engine", fmt.Sprintf("speculate batch %d", b.id), nil)
}

// onBatchFailed records a batch abandoned after retry-budget exhaustion.
func (e *Engine) onBatchFailed(b *batch) {
	o := e.obs
	if o == nil {
		return
	}
	o.batchesFailed.Inc()
	if o.traceOn {
		e.traceBatchFailed(b)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceBatchFailed(b *batch) {
	//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
	e.obs.tr.Instant(PidEngine, TidExecutors, "engine", fmt.Sprintf("batch %d FAILED", b.id),
		tracing.Args{"attempts": b.attempts, "records": b.records})
}

// onShed records an emergency load-shed episode.
func (e *Engine) onShed(rate float64, until sim.Time) {
	o := e.obs
	if o == nil {
		return
	}
	o.shedEvents.Inc()
	if o.traceOn {
		e.traceShed(rate, until)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceShed(rate float64, until sim.Time) {
	e.obs.tr.Instant(PidEngine, TidReceiver, "engine", "load-shed",
		tracing.Args{"cap_rate": rate, "until_s": until.Seconds()})
}

// onBatchComplete records a successful batch: queue-residence span,
// delay histograms, and live gauges.
func (e *Engine) onBatchComplete(b *batch, bs BatchStats) {
	o := e.obs
	if o == nil {
		return
	}
	o.batchesCompleted.Inc()
	o.procHist.Observe(bs.ProcessingTime.Seconds())
	o.schedHist.Observe(bs.SchedulingDelay.Seconds())
	o.e2eHist.Observe(bs.EndToEndDelay.Seconds())
	o.totalHist.Observe((bs.ProcessingTime + bs.SchedulingDelay).Seconds())
	o.queueLen.Set(float64(len(e.queue)))
	o.liveExecutors.Set(float64(len(e.execs)))
	o.brokerLag.Set(float64(e.group.Lag()))
	o.committedLag.Set(float64(e.group.CommittedLag()))
	if o.traceOn {
		e.traceBatchComplete(b, bs)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceBatchComplete(b *batch, bs BatchStats) {
	o := e.obs
	if bs.SchedulingDelay > 0 {
		//nostop:allow obscontract -- per-batch span name: bounded by the run horizon, golden-pinned trace output
		o.tr.Span(PidEngine, TidReceiver, "engine", fmt.Sprintf("queued batch %d", b.id),
			b.cutAt, bs.SchedulingDelay, tracing.Args{"records": b.records})
	}
	o.tr.Counter(PidEngine, "queue", tracing.Args{"batches": len(e.queue)})
	o.tr.Counter(PidEngine, "lag", tracing.Args{"records": e.group.Lag()})
}

// onReconfigure records an applied configuration change.
func (e *Engine) onReconfigure(cfg Config) {
	o := e.obs
	if o == nil {
		return
	}
	o.reconfigs.Inc()
	o.cfgInterval.Set(cfg.BatchInterval.Seconds())
	o.cfgExecutors.Set(float64(cfg.Executors))
	if o.traceOn {
		e.traceReconfigure(cfg)
	}
}

//nostop:allow hotalloc -- opt-in trace branch, off the 0-alloc budget path
func (e *Engine) traceReconfigure(cfg Config) {
	e.obs.tr.Instant(PidEngine, TidConfig, "engine", "reconfigure",
		tracing.Args{"interval_ms": cfg.BatchInterval.Milliseconds(), "executors": cfg.Executors})
}

// onReallocate records an executor-pool rebuild after a capacity change.
func (e *Engine) onReallocate() {
	o := e.obs
	if o == nil {
		return
	}
	o.liveExecutors.Set(float64(len(e.execs)))
	if o.traceOn {
		o.tr.Instant(PidEngine, TidConfig, "engine", "reallocate",
			tracing.Args{"live_executors": len(e.execs), "configured": e.cfg.Executors})
	}
}

// onDropped records records rejected by the effective ingest cap.
func (e *Engine) onDropped(n float64) {
	if e.obs == nil || n <= 0 {
		return
	}
	e.obs.recordsDropped.Add(n)
}
