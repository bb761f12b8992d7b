// Package engine implements a Spark-Streaming-like micro-batch streaming
// engine over the discrete-event kernel: a receiver that drains a Kafka-like
// topic, a batch divider driven by a runtime-tunable batch interval, a FIFO
// batch queue, a single-job scheduler (Spark's default
// spark.streaming.concurrentJobs=1), and an executor pool drawn from a
// heterogeneous cluster.
//
// The engine reproduces the dynamics the paper's optimization problem is
// built on (§3):
//
//   - If batch processing time exceeds the batch interval, batches pile up
//     in the queue and scheduling delay grows without bound (unstable).
//   - If the interval exceeds processing time, the engine idles and
//     end-to-end delay is unnecessarily long.
//   - Batch interval and executor count are reconfigurable at runtime
//     without restarting anything — the system modification NoStop assumes
//     (§3.2) — with interval changes taking effect at the next batch
//     boundary and executor changes incurring a one-off setup cost on the
//     next batch (jar shipping to new executors, §5.4).
package engine

import (
	"errors"
	"fmt"
	"log"
	"math"
	"time"

	"nostop/internal/approx"
	"nostop/internal/broker"
	"nostop/internal/cluster"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/stats"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// Config is the runtime-tunable configuration pair the paper optimizes.
type Config struct {
	BatchInterval time.Duration
	Executors     int
	// BlockInterval is the receiver block interval: each block becomes
	// one task, so tasks-per-batch = BatchInterval / BlockInterval. The
	// paper fixes it (Spark's 200ms default) and names multi-parameter
	// tuning as future work (§7); this reproduction makes it tunable.
	// Zero means "engine default" (200ms) and is how two-parameter
	// controllers leave it alone.
	BlockInterval time.Duration
}

// String implements fmt.Stringer.
func (c Config) String() string {
	if c.BlockInterval > 0 {
		return fmt.Sprintf("{interval %v, executors %d, block %v}", c.BatchInterval, c.Executors, c.BlockInterval)
	}
	return fmt.Sprintf("{interval %v, executors %d}", c.BatchInterval, c.Executors)
}

// Bounds is the feasible configuration region (§5.1).
type Bounds struct {
	MinInterval, MaxInterval   time.Duration
	MinExecutors, MaxExecutors int
	// MinBlock/MaxBlock bound the tunable block interval; both zero
	// means the block interval is not tunable (Config.BlockInterval must
	// stay 0 and the engine default applies).
	MinBlock, MaxBlock time.Duration
}

// DefaultBounds mirrors §6.2.1: 1..40 s batch interval, 1..20 executors.
func DefaultBounds() Bounds {
	return Bounds{
		MinInterval: 1 * time.Second, MaxInterval: 40 * time.Second,
		MinExecutors: 1, MaxExecutors: 20,
	}
}

// Clamp returns cfg restricted to the bounds.
func (b Bounds) Clamp(cfg Config) Config {
	if cfg.BatchInterval < b.MinInterval {
		cfg.BatchInterval = b.MinInterval
	}
	if cfg.BatchInterval > b.MaxInterval {
		cfg.BatchInterval = b.MaxInterval
	}
	if cfg.Executors < b.MinExecutors {
		cfg.Executors = b.MinExecutors
	}
	if cfg.Executors > b.MaxExecutors {
		cfg.Executors = b.MaxExecutors
	}
	switch {
	case b.MinBlock == 0 && b.MaxBlock == 0:
		cfg.BlockInterval = 0 // not tunable: pin to the engine default
	case cfg.BlockInterval == 0:
		// Zero always means "engine default", even when the block
		// interval is tunable: two-parameter controllers keep working on
		// a three-parameter-capable engine.
	default:
		if cfg.BlockInterval < b.MinBlock {
			cfg.BlockInterval = b.MinBlock
		}
		if cfg.BlockInterval > b.MaxBlock {
			cfg.BlockInterval = b.MaxBlock
		}
	}
	return cfg
}

// Contains reports whether cfg lies within the bounds.
func (b Bounds) Contains(cfg Config) bool { return b.Clamp(cfg) == cfg }

// BatchStats describes one completed batch — the per-batch status report a
// StreamingListener would deliver (§4.3).
type BatchStats struct {
	ID        int64
	Records   int64
	Config    Config // configuration in effect when the batch was cut
	CutAt     sim.Time
	StartedAt sim.Time
	DoneAt    sim.Time
	// SchedulingDelay is the time the batch waited in the queue (Fig 2b's
	// "batch schedule delay").
	SchedulingDelay time.Duration
	// ProcessingTime is the simulated Spark job duration.
	ProcessingTime time.Duration
	// EndToEndDelay approximates the mean record's end-to-end latency:
	// half a batch interval of residence while the batch forms, plus
	// scheduling delay, plus processing time.
	EndToEndDelay time.Duration
	// FirstAfterReconfig marks the first batch cut after a configuration
	// change; §5.4 excludes it from measurements because reconfiguration
	// inflates it (jar shipping, executor registration).
	FirstAfterReconfig bool
	// FaultActive marks a batch that was cut or completed while a fault
	// was in effect (node down, straggler, task-failure window, partition
	// outage, ingest spike). Extending the §5.4 exclusion, the controller
	// keeps such batches out of SPSA probe measurements so the optimizer
	// never learns from failure noise.
	FaultActive bool
	// Attempts is how many executions the batch took; 1 means no retry.
	Attempts int
	// Speculated reports that straggler mitigation re-ran slow tasks on
	// healthy executors.
	Speculated bool
	// QueueLen is the batch-queue length right after this batch finished.
	QueueLen int
	// Semantic is the workload's output when payload records were attached.
	Semantic workload.Result
	// Tenant names the owning tenant in multi-tenant runs; empty for the
	// single-app simulations the paper evaluates.
	Tenant string
}

// Listener observes completed batches. The NoStop controller, the metrics
// listener, and tests all attach through this interface.
type Listener interface {
	OnBatchComplete(BatchStats)
}

// ListenerFunc adapts a function to the Listener interface.
type ListenerFunc func(BatchStats)

// OnBatchComplete implements Listener.
func (f ListenerFunc) OnBatchComplete(bs BatchStats) { f(bs) }

// Options configure a new engine.
type Options struct {
	Workload workload.Workload
	Trace    ratetrace.Trace
	Cluster  *cluster.Cluster // nil: the paper's Table 2 cluster
	Seed     *rng.Stream      // nil: rng.New(1)
	Initial  Config           // zero: Default (interval 30s, 8 executors)
	Bounds   Bounds           // zero: DefaultBounds

	// Bus, when non-nil, is a shared broker bus: multi-tenant runs give
	// every engine the same bus so per-tenant topics coexist and cluster
	// accounting aggregates. Nil creates a private bus (single-app mode).
	Bus *broker.Bus
	// TopicName is the engine's input topic; empty means "input". Tenant
	// mixes must pick distinct names on a shared bus.
	TopicName string
	// Tenant tags the engine's topic and batches with a tenant identity,
	// enabling the broker's per-tenant accounting. Empty disables tagging.
	Tenant string

	// Partitions is the topic partition count; 0 picks
	// 2·TotalWorkerCores, honouring §6.1's "more partitions than cores".
	Partitions int
	// PayloadsPerTick is how many concrete payload records (with real
	// generated data) accompany the counted arrivals each tick; they feed
	// the workload's semantic ProcessBatch. 0 disables payloads.
	PayloadsPerTick int
	// ReconfigSetup is the one-off cost added to the first batch after an
	// executor-count change. 0 means 1s.
	ReconfigSetup time.Duration
	// ShedFactor scales emergency load shedding: on retry-budget
	// exhaustion the accepted ingest rate is capped at ShedFactor times
	// the recent mean arrival rate for 60s. 0 means 0.8;
	// negative disables shedding.
	ShedFactor float64

	// Metrics, when non-nil, receives the engine's counters, gauges, and
	// delay histograms (see docs/METRICS.md). Instrumentation is passive:
	// it consumes no randomness and schedules no events, so observed and
	// unobserved same-seed runs produce identical batch histories.
	Metrics *metrics.Registry
	// Tracer, when non-nil, records the batch/task lifecycle as Chrome
	// trace_event spans on the simulation clock.
	Tracer *tracing.Tracer
}

// Engine settings no run varies: the paper holds every Spark setting but
// the tuned pair at its default.
const (
	producerTick     = 100 * time.Millisecond  // arrivals are counted per tick and sent once per ticker run
	defaultBlock     = 200 * time.Millisecond  // Spark's block interval, for Config.BlockInterval 0
	taskDispatchCost = 1500 * time.Microsecond // driver cost per task: over-fine blocks are expensive
	sampleCap        = 256                     // payload retention per partition when payloads are on
	rateWindow       = 60 * time.Second        // recent-arrival-rate window for controllers (§5.5)
	shedDuration     = 60 * time.Second        // how long an emergency shed cap holds
	// A failed batch re-executes after retryBackoff, doubled per attempt
	// up to retryBackoffMax.
	retryBackoff    = 2 * time.Second
	retryBackoffMax = 30 * time.Second
	// speculativeOverhead is the relative cost a speculative re-run adds
	// to the healthy estimate (duplicate launches, extra shuffle reads).
	speculativeOverhead = 0.25
	// The retry budget and speculation gate an engine starts with; only
	// SetTaskMaxFailures and SetSpeculativeMultiplier move them.
	defaultTaskMaxFailures       = 4
	defaultSpeculativeMultiplier = 1.5
)

// DefaultConfig is the untuned starting configuration used as the Fig 7
// baseline: a conservative long interval with a modest executor count.
func DefaultConfig() Config {
	return Config{BatchInterval: 30 * time.Second, Executors: 8}
}

// Engine is the simulated streaming system.
type Engine struct {
	clock *sim.Clock
	opts  Options

	wl      workload.Workload
	cl      *cluster.Cluster
	bus     *broker.Bus
	topic   *broker.Topic
	prod    *broker.Producer
	group   *broker.ConsumerGroup
	noise   *rng.Stream
	payload *rng.Stream

	cfg        Config
	pending    *Config // config to apply at the next batch boundary
	execs      []cluster.Executor
	setupOwed  bool // next scheduled batch pays ReconfigSetup
	markFirst  bool // next cut batch is flagged FirstAfterReconfig
	reconfigs  int
	started    bool
	stopped    bool
	fracCarry  float64 // fractional records carried between producer ticks
	lastTickAt sim.Time
	unsent     int64 // counted records of the ticker's current run, sent when it ends

	// The producer tick's arithmetic, resolved or converted once: the
	// trace's integrator, the last tick span in seconds, and the last rate
	// keyed on the bits of the arrivals and seconds it divided.
	arrivals          ratetrace.Integrator
	tickDt            time.Duration
	tickSecs          float64
	rateArr, rateSecs uint64
	rate              float64

	queue    []*batch
	busy     bool
	nextID   int64
	cutEvent sim.Event

	// ticker fires the producer tick and sends each run's records with its
	// settle; cutFn is the batch-cut callback bound once at Start:
	// rescheduling with a fresh method value (e.cutBatch) would allocate a
	// closure per cut on the hot path.
	ticker *sim.Ticker
	cutFn  func()

	history    []BatchStats
	historyCap int
	listeners  []Listener

	rates *stats.Window // recent per-tick arrival rates (rec/s)
	// The runtime knobs, moved only by their Set* actuators.
	ingestCap      float64 // accepted input rate limit (rec/s); 0: uncapped
	maxFailures    int     // per-batch attempt budget
	specMultiplier float64 // speculation slowdown gate

	totalRecords int64
	droppedByCap int64

	// Fault state, driven by the faults injector (or tests) through the
	// Set* methods below.
	faultRng    *rng.Stream
	faultActive bool
	taskFail    float64         // per-attempt transient failure probability
	slowNodes   map[int]float64 // node ID -> slowdown factor (>1 = slower)
	ingestBoost float64         // arrival-rate multiplier (spike injection)
	shedRate    float64         // emergency ingest cap from load shedding
	shedUntil   sim.Time

	taskRetries    int
	speculations   int
	failedBatches  int64
	failedRecords  int64
	shedEvents     int
	listenerPanics int

	obs *obsState // nil when observability is disabled
}

type batch struct {
	id      int64
	records int64
	// chunk carries the fetched payloads and offset ranges; it is released
	// back to the consumer group's pool when the batch completes or fails.
	// nil for an empty batch.
	chunk      *broker.Chunk
	cutAt      sim.Time
	cfg        Config
	first      bool
	faulty     bool
	attempts   int
	tasks      int // task count of the latest attempt (blocks per batch)
	speculated bool
}

// Common errors.
var (
	ErrNotRunning   = errors.New("engine: not started")
	ErrOutOfBounds  = errors.New("engine: configuration outside bounds")
	ErrAlreadyStart = errors.New("engine: already started")
)

// New constructs an engine on the given clock. It allocates the initial
// executors immediately and validates the initial configuration.
func New(clock *sim.Clock, opts Options) (*Engine, error) {
	if clock == nil {
		return nil, errors.New("engine: nil clock")
	}
	if opts.Workload == nil {
		return nil, errors.New("engine: nil workload")
	}
	if opts.Trace == nil {
		return nil, errors.New("engine: nil trace")
	}
	if opts.Cluster == nil {
		opts.Cluster = cluster.Table2()
	}
	if opts.Seed == nil {
		opts.Seed = rng.New(1)
	}
	if opts.Initial == (Config{}) {
		opts.Initial = DefaultConfig()
	}
	if opts.Bounds == (Bounds{}) {
		opts.Bounds = DefaultBounds()
	}
	if opts.Partitions == 0 {
		opts.Partitions = 2 * opts.Cluster.TotalWorkerCores()
	}
	if opts.ReconfigSetup == 0 {
		opts.ReconfigSetup = time.Second
	}
	if approx.Unset(opts.ShedFactor) {
		opts.ShedFactor = 0.8
	}
	if !opts.Bounds.Contains(opts.Initial) {
		return nil, fmt.Errorf("%w: initial %v", ErrOutOfBounds, opts.Initial)
	}
	if opts.Bounds.MaxExecutors > opts.Cluster.TotalWorkerCores() {
		return nil, fmt.Errorf("engine: bounds allow %d executors but cluster has %d cores",
			opts.Bounds.MaxExecutors, opts.Cluster.TotalWorkerCores())
	}

	if opts.TopicName == "" {
		opts.TopicName = "input"
	}
	bus := opts.Bus
	if bus == nil {
		var nodeIDs []int
		for _, n := range opts.Cluster.Nodes() {
			nodeIDs = append(nodeIDs, n.ID)
		}
		var err error
		bus, err = broker.NewBus(nodeIDs)
		if err != nil {
			return nil, err
		}
	}
	samples := 0
	if opts.PayloadsPerTick > 0 {
		samples = sampleCap
	}
	var topic *broker.Topic
	var err error
	if opts.Tenant != "" {
		topic, err = bus.CreateTenantTopic(opts.TopicName, opts.Tenant, opts.Partitions, samples)
	} else {
		topic, err = bus.CreateTopic(opts.TopicName, opts.Partitions, samples)
	}
	if err != nil {
		return nil, err
	}
	prod, err := bus.NewProducer(opts.TopicName)
	if err != nil {
		return nil, err
	}
	group, err := bus.NewConsumerGroup(opts.TopicName)
	if err != nil {
		return nil, err
	}
	execs, err := opts.Cluster.Allocate(opts.Initial.Executors)
	if err != nil {
		return nil, fmt.Errorf("engine: initial allocation: %w", err)
	}
	e := &Engine{
		clock:       clock,
		opts:        opts,
		wl:          opts.Workload,
		cl:          opts.Cluster,
		bus:         bus,
		topic:       topic,
		prod:        prod,
		group:       group,
		noise:       opts.Seed.Split("engine-noise"),
		payload:     opts.Seed.Split("engine-payload"),
		faultRng:    opts.Seed.Split("engine-faults"),
		slowNodes:   make(map[int]float64),
		ingestBoost: 1,
		cfg:         opts.Initial,
		execs:       execs,
		historyCap:  1 << 20,
		rates:       stats.NewWindow(int(rateWindow / producerTick)),
		arrivals:    ratetrace.NewIntegrator(opts.Trace),

		maxFailures:    defaultTaskMaxFailures,
		specMultiplier: defaultSpeculativeMultiplier,
	}
	e.obs = newObsState(opts.Metrics, opts.Tracer)
	if e.obs != nil {
		topic.SetObserver(e.obs)
		e.obs.cfgInterval.Set(e.cfg.BatchInterval.Seconds())
		e.obs.cfgExecutors.Set(float64(e.cfg.Executors))
		e.obs.liveExecutors.Set(float64(len(e.execs)))
	}
	return e, nil
}

// Start schedules the producer and the first batch cut. It may be called
// once; the engine then runs as the clock advances.
func (e *Engine) Start() error {
	if e.started {
		return ErrAlreadyStart
	}
	e.started = true
	e.lastTickAt = e.clock.Now()
	e.cutFn = e.cutBatch
	e.ticker = e.clock.NewTicker(producerTick, e.producerTick)
	e.ticker.SetSettle(e.sendUnsent)
	e.cutEvent = e.clock.After(e.cfg.BatchInterval, e.cutFn)
	return nil
}

// Stop halts future producer ticks and batch cuts. In-flight processing
// completes.
func (e *Engine) Stop() { e.stopped = true }

// AddListener attaches a batch-completion listener.
func (e *Engine) AddListener(l Listener) { e.listeners = append(e.listeners, l) }

// producerTick counts trace arrivals since the previous tick into unsent,
// which the ticker's settle sends to the topic when the run of ticks ends:
// inside a run nothing reads the topic, the tenant account or the registry,
// and one SendCount of a run's total leaves every partition end where one
// per tick would. A tick with payloads sends the total first, so payload
// offsets follow the counted records as they did. Records the cap drops
// are still counted per tick: their counter adds are fractional, and
// summing them first would round differently. The first tick after Stop
// stops the ticker.
//
//nostop:hotpath
func (e *Engine) producerTick() {
	if e.stopped {
		e.ticker.Stop()
		return
	}
	now := e.clock.Now()
	if dt := now - e.lastTickAt; dt != e.tickDt {
		e.tickDt, e.tickSecs = dt, dt.Seconds()
	}
	elapsed := e.tickSecs
	arrivals := e.arrivals.RecordsIn(e.lastTickAt, now, elapsed) * e.ingestBoost
	n := arrivals + e.fracCarry
	rate := 0.0
	if elapsed > 0 {
		if a, s := math.Float64bits(arrivals), math.Float64bits(elapsed); a != e.rateArr || s != e.rateSecs {
			e.rateArr, e.rateSecs, e.rate = a, s, arrivals/elapsed
		}
		rate = e.rate
	}
	if cap := e.effectiveCap(now); cap > 0 && elapsed > 0 {
		allowed := cap * elapsed
		if n-e.fracCarry > allowed {
			e.droppedByCap += int64(n - e.fracCarry - allowed)
			e.onDropped(n - e.fracCarry - allowed)
			n = allowed + e.fracCarry
		}
	}
	whole := int64(n)
	e.fracCarry = n - float64(whole)
	e.lastTickAt = now
	e.rates.Add(rate)

	payloads := int64(e.opts.PayloadsPerTick)
	if payloads > whole {
		payloads = whole
	}
	e.unsent += whole - payloads
	if payloads > 0 {
		e.sendUnsent()
		for i := int64(0); i < payloads; i++ {
			e.prod.Send("", e.wl.GenValue(e.totalRecords+i, e.payload), now)
		}
	}
	e.totalRecords += whole
}

// sendUnsent sends the counted records not yet sent in one SendCount: the
// producer ticker's settle, bound once at Start.
//
//nostop:hotpath
func (e *Engine) sendUnsent() {
	e.prod.SendCount(e.unsent)
	e.unsent = 0
}

// effectiveCap combines the configured/back-pressure ingest cap with any
// live emergency shed cap (the tighter one wins while shedding is active).
func (e *Engine) effectiveCap(now sim.Time) float64 {
	cap := e.ingestCap
	if e.shedRate > 0 && now < e.shedUntil {
		if cap <= 0 || e.shedRate < cap {
			cap = e.shedRate
		}
	}
	return cap
}

// cutBatch drains the topic into a new batch, applies any pending config,
// and schedules the next cut. Offsets are fetched uncommitted: the batch
// commits its ranges only when it completes successfully, so an outage
// replays anything in flight (at-least-once).
//
//nostop:hotpath
func (e *Engine) cutBatch() {
	if e.stopped {
		return
	}
	c := e.group.FetchChunk(0)
	var n int64
	if c != nil {
		n = c.Count
	}
	//nostop:allow hotalloc -- one batch header per cut (per-interval, not per-record)
	b := &batch{
		id:      e.nextID,
		records: n,
		chunk:   c,
		cutAt:   e.clock.Now(),
		cfg:     e.cfg,
		first:   e.markFirst,
		faulty:  e.faultInEffect(),
	}
	e.markFirst = false
	e.nextID++
	e.queue = append(e.queue, b)
	e.onBatchCut(b)
	e.trySchedule()

	// Apply a pending configuration at the boundary, then schedule the
	// next cut with the (possibly new) interval.
	if e.pending != nil {
		e.applyConfig(*e.pending)
		e.pending = nil
	}
	e.cutEvent = e.clock.After(e.cfg.BatchInterval, e.cutFn)
}

// applyConfig switches the live configuration; executor-count changes
// reallocate and charge setup to the next scheduled batch.
//
//nostop:allow hotalloc -- reconfiguration boundary: runs once per config change, not per record
func (e *Engine) applyConfig(cfg Config) {
	changedExecs := cfg.Executors != e.cfg.Executors || len(e.execs) != cfg.Executors
	e.cfg = cfg
	if changedExecs {
		// reallocate caps the allocation at live-cluster capacity, so a
		// reconfiguration during a node failure degrades gracefully
		// instead of failing.
		e.reallocate()
	}
	e.reconfigs++
	e.markFirst = true
	e.onReconfigure(cfg)
}

// trySchedule starts the head-of-queue batch if the engine is idle. With no
// live executors (total outage) batches wait in the queue.
func (e *Engine) trySchedule() {
	if e.busy || len(e.queue) == 0 || len(e.execs) == 0 {
		return
	}
	b := e.queue[0]
	e.queue = e.queue[1:]
	e.busy = true
	start := e.clock.Now()
	e.runAttempt(b, start)
}

// runAttempt executes one processing attempt of a batch. Straggler slowdown
// stretches the runtime unless speculation re-runs the slow tasks on healthy
// executors; transient task failures re-execute the whole attempt after a
// capped exponential backoff, and an exhausted budget fails the batch.
func (e *Engine) runAttempt(b *batch, start sim.Time) {
	execCount := len(e.execs)
	if execCount == 0 {
		// The cluster died between scheduling and the retry: requeue and
		// wait for capacity.
		e.busy = false
		//nostop:allow hotalloc -- cold path: head requeue after a total cluster outage
		e.queue = append([]*batch{b}, e.queue...)
		return
	}
	rawPar := cluster.Parallelism(e.execs, e.wl.Model().IOWeight)
	// Each receiver block becomes one task (Spark semantics): a coarse
	// block interval caps parallelism below the executor count, a fine
	// one multiplies driver dispatch overhead.
	block := b.cfg.BlockInterval
	if block <= 0 {
		block = defaultBlock
	}
	tasks := int(b.cfg.BatchInterval / block)
	if tasks < 1 {
		tasks = 1
	}
	b.tasks = tasks
	//nostop:allow hotalloc -- non-escaping closure: called locally, stack-allocated
	capPar := func(p float64) float64 {
		if maxPar := float64(e.opts.Partitions); p > maxPar {
			p = maxPar // task parallelism cannot exceed partition count
		}
		if float64(tasks) < p {
			p = float64(tasks)
		}
		return p
	}
	par := capPar(rawPar)
	proc := e.wl.Model().ProcessingTime(b.records, execCount, par, e.noise)
	if len(e.slowNodes) > 0 {
		// Stragglers hurt twice: aggregate throughput drops with the
		// degraded parallelism, and the batch cannot finish before the
		// slowest hosted executor clears its final task wave. The healthy
		// estimate is rescaled rather than re-sampled so the noise draw
		// stays shared between the two outcomes.
		stretch := 1.0
		if degPar := capPar(e.degradedParallelism()); degPar > 0 && degPar < par {
			stretch = par / degPar
		}
		if tail := e.hostedMaxSlowdown(); tail > stretch {
			stretch = tail
		}
		if stretch > 1 {
			degraded := time.Duration(float64(proc) * stretch)
			if degraded > time.Duration(float64(proc)*e.specMultiplier) {
				proc = time.Duration(float64(proc) * (1 + speculativeOverhead))
				b.speculated = true
				e.speculations++
				e.onSpeculation(b)
			} else {
				proc = degraded
			}
		}
	}
	proc += time.Duration(tasks) * taskDispatchCost
	if e.setupOwed {
		proc += e.opts.ReconfigSetup
		e.setupOwed = false
	}
	//nostop:allow hotalloc -- one completion closure per attempt (per-batch, not per-record)
	e.clock.After(proc, func() { e.finishAttempt(b, start, proc) })
}

// degradedParallelism is cluster.Parallelism with straggler slowdown factors
// applied per host node.
func (e *Engine) degradedParallelism() float64 {
	io := e.wl.Model().IOWeight
	if io < 0 {
		io = 0
	}
	if io > 1 {
		io = 1
	}
	p := 0.0
	for _, ex := range e.execs {
		f := ex.Node.SpeedFactor * ((1 - io) + io*ex.Node.DiskFactor)
		if s, ok := e.slowNodes[ex.Node.ID]; ok && s > 1 {
			f /= s
		}
		p += f
	}
	return p
}

// hostedMaxSlowdown returns the worst straggler factor among nodes that
// actually host executors — the tail-latency multiplier of the final task
// wave when no speculation rescues it.
func (e *Engine) hostedMaxSlowdown() float64 {
	worst := 1.0
	for _, ex := range e.execs {
		if s, ok := e.slowNodes[ex.Node.ID]; ok && s > worst {
			worst = s
		}
	}
	return worst
}

// finishAttempt resolves one attempt: transient failure → backoff and
// requeue at the head; budget exhausted → failed batch plus load shedding;
// otherwise the batch completes.
func (e *Engine) finishAttempt(b *batch, start sim.Time, proc time.Duration) {
	b.attempts++
	if e.taskFail > 0 && e.faultRng.Float64() < e.taskFail {
		e.onAttempt(b, start, proc, true)
		if b.attempts >= e.maxFailures {
			e.failBatch(b)
			return
		}
		e.taskRetries++
		backoff := retryBackoff << (b.attempts - 1)
		if backoff > retryBackoffMax {
			backoff = retryBackoffMax
		}
		e.onRetry(b, backoff)
		// The job releases the scheduler during the backoff; the batch
		// requeues at the head so it is retried before younger batches.
		e.busy = false
		e.trySchedule()
		//nostop:allow hotalloc -- one backoff closure per transient-failure retry
		e.clock.After(backoff, func() {
			//nostop:allow hotalloc -- head requeue: one small slice per retry
			e.queue = append([]*batch{b}, e.queue...)
			e.trySchedule()
		})
		return
	}
	e.completeBatch(b, start, proc)
}

// failBatch gives up on a batch whose retry budget is exhausted: its records
// count as failed (their offsets stay uncommitted, so the loss is visible in
// CommittedLag) and the engine sheds load through the ingest cap to protect
// itself while the fault persists.
func (e *Engine) failBatch(b *batch) {
	e.failedBatches++
	e.failedRecords += b.records
	e.busy = false
	e.onBatchFailed(b)
	if b.chunk != nil {
		// The ranges stay uncommitted (the loss is visible in CommittedLag);
		// only the carrier chunk is recycled.
		e.group.Release(b.chunk)
		b.chunk = nil
	}
	if e.opts.ShedFactor >= 0 {
		if mean := e.rates.Mean(); mean > 0 {
			e.shedRate = e.opts.ShedFactor * mean
			e.shedUntil = e.clock.Now() + sim.Time(shedDuration)
			e.shedEvents++
			e.onShed(e.shedRate, e.shedUntil)
		}
	}
	e.trySchedule()
}

// completeBatch finalises stats, commits the batch's offset ranges, runs
// semantic processing, and notifies listeners.
func (e *Engine) completeBatch(b *batch, start sim.Time, proc time.Duration) {
	e.busy = false
	var result workload.Result
	if b.chunk != nil {
		e.group.Commit(b.chunk.Ranges)
	}
	e.wl.Model().NoteBatch()
	if b.chunk != nil {
		if len(b.chunk.Records) > 0 {
			result = e.wl.ProcessBatch(b.chunk.Records)
		}
		e.group.Release(b.chunk)
		b.chunk = nil
	}
	// start is the successful attempt's dispatch time, so failed attempts
	// and their backoffs surface as scheduling delay while ProcessingTime
	// stays the successful attempt's runtime.
	sched := time.Duration(start - b.cutAt)
	bs := BatchStats{
		ID:                 b.id,
		Records:            b.records,
		Config:             b.cfg,
		CutAt:              b.cutAt,
		StartedAt:          start,
		DoneAt:             e.clock.Now(),
		SchedulingDelay:    sched,
		ProcessingTime:     proc,
		EndToEndDelay:      b.cfg.BatchInterval/2 + sched + proc,
		FirstAfterReconfig: b.first,
		FaultActive:        b.faulty || e.faultInEffect(),
		Attempts:           b.attempts,
		Speculated:         b.speculated,
		QueueLen:           len(e.queue),
		Semantic:           result,
		Tenant:             e.opts.Tenant,
	}
	e.onAttempt(b, start, proc, false)
	e.onBatchComplete(b, bs)
	if len(e.history) < e.historyCap {
		e.history = append(e.history, bs)
	}
	for _, l := range e.listeners {
		e.notify(l, bs)
	}
	e.trySchedule()
}

// notify delivers one listener callback, isolating panics: a misbehaving
// listener cannot kill the simulation run.
//
//nostop:allow hotalloc -- panic isolation needs a deferred closure; once per listener per batch
func (e *Engine) notify(l Listener, bs BatchStats) {
	defer func() {
		if r := recover(); r != nil {
			e.listenerPanics++
			log.Printf("engine: listener panic on batch %d (isolated): %v", bs.ID, r)
		}
	}()
	l.OnBatchComplete(bs)
}

// Reconfigure requests a configuration change; it takes effect at the next
// batch boundary (§5.3's changeConfigurations). Returns ErrOutOfBounds for
// configurations outside the feasible region.
func (e *Engine) Reconfigure(cfg Config) error {
	if !e.started {
		return ErrNotRunning
	}
	if !e.opts.Bounds.Contains(cfg) {
		return fmt.Errorf("%w: %v", ErrOutOfBounds, cfg)
	}
	if cfg == e.cfg && e.pending == nil {
		return nil // no-op
	}
	e.pending = &cfg
	return nil
}

// EnsureLiveExecutors re-attempts allocation when the live executor set is
// below the configured count — the retry hook the tenant allocator calls
// after freeing capacity elsewhere. Reconfigure alone cannot express this:
// it no-ops when the requested config equals the live one, even though a
// previous allocation came up short. No-op when already at strength.
func (e *Engine) EnsureLiveExecutors() {
	if !e.started || len(e.execs) >= e.cfg.Executors {
		return
	}
	e.reallocate()
}

// FailNode simulates the loss of a cluster node mid-run: its executors die
// and the engine immediately reallocates as many executors as remaining
// capacity allows (possibly fewer than the configured count), paying the
// reconfiguration setup cost. Batches already queued keep their records.
func (e *Engine) FailNode(nodeID int) error {
	if err := e.cl.SetFailed(nodeID, true); err != nil {
		return err
	}
	e.reallocate()
	return nil
}

// RestoreNode returns a failed node to service and re-fills the executor
// allocation back toward the configured count.
func (e *Engine) RestoreNode(nodeID int) error {
	if err := e.cl.SetFailed(nodeID, false); err != nil {
		return err
	}
	e.reallocate()
	return nil
}

// FailPartition takes a topic partition's leader offline: the receiver
// cannot fetch from it, its in-flight (uncommitted) fetch session is lost,
// and the consumer rewinds to the committed offset so the span is
// redelivered after restoration — at-least-once, never lost.
func (e *Engine) FailPartition(partition int) error {
	if partition < 0 || partition >= len(e.topic.Partitions) {
		return fmt.Errorf("engine: unknown partition %d", partition)
	}
	e.topic.Partitions[partition].SetDown(true)
	e.group.Rewind(partition)
	return nil
}

// RestorePartition brings a partition's leader back; the backlog accumulated
// during the outage (including the rewound span) becomes fetchable again.
func (e *Engine) RestorePartition(partition int) error {
	if partition < 0 || partition >= len(e.topic.Partitions) {
		return fmt.Errorf("engine: unknown partition %d", partition)
	}
	e.topic.Partitions[partition].SetDown(false)
	return nil
}

// SetNodeSlowdown marks a node's executors as stragglers running factor
// times slower (factor <= 1 clears the straggler). Unknown nodes error.
func (e *Engine) SetNodeSlowdown(nodeID int, factor float64) error {
	found := false
	for _, n := range e.cl.Nodes() {
		if n.ID == nodeID {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("engine: unknown node %d", nodeID)
	}
	if factor <= 1 {
		delete(e.slowNodes, nodeID)
		return nil
	}
	e.slowNodes[nodeID] = factor
	return nil
}

// SetTaskFailureRate sets the per-attempt probability that a batch suffers a
// transient task-failure wave requiring re-execution. Values are clamped to
// [0, 1]; 0 disables injection.
func (e *Engine) SetTaskFailureRate(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	e.taskFail = p
}

// SetIngestBoost multiplies trace arrivals by factor — the fault injector's
// ingest-spike lever. factor <= 0 resets to 1.
func (e *Engine) SetIngestBoost(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	e.ingestBoost = factor
}

// SetFaultActive force-marks the fault window open or closed; the fault
// injector brackets every fault's lifetime with it so batches overlapping
// any fault carry BatchStats.FaultActive.
func (e *Engine) SetFaultActive(active bool) { e.faultActive = active }

// faultInEffect reports whether any fault is currently live: the injector's
// explicit window, a task-failure or straggler injection, an ingest boost, a
// failed node, or a downed partition.
func (e *Engine) faultInEffect() bool {
	// Both probes are O(1) incremental counters so the per-batch check stays
	// constant-time on O(1000)-node clusters and O(100)-partition topics.
	return e.faultActive || e.taskFail > 0 || len(e.slowNodes) > 0 ||
		!approx.Eq(e.ingestBoost, 1) ||
		e.cl.FailedCount() > 0 || e.topic.DownPartitions() > 0
}

// FaultInEffect exposes the live fault check for controllers and reports.
func (e *Engine) FaultInEffect() bool { return e.faultInEffect() }

// reallocate rebuilds the executor set after a capacity change, capped by
// what the live cluster can host. With zero capacity the engine holds no
// executors and processing stalls until a node returns.
func (e *Engine) reallocate() {
	e.cl.Release(e.execs)
	e.execs = nil
	want := e.cfg.Executors
	if avail := e.cl.FreeCores(); want > avail {
		want = avail
	}
	if want > 0 {
		execs, err := e.cl.Allocate(want)
		if err == nil {
			e.execs = execs
		}
	}
	e.setupOwed = true
	e.markFirst = true
	e.onReallocate()
	e.trySchedule()
}

// LiveExecutors returns the number of currently-allocated executors, which
// can fall below the configured count after node failures.
func (e *Engine) LiveExecutors() int { return len(e.execs) }

// Config returns the live configuration.
func (e *Engine) Config() Config { return e.cfg }

// TargetConfig returns the configuration the engine runs after its next
// batch boundary: the pending request if there is one, else the live one.
func (e *Engine) TargetConfig() Config {
	if e.pending != nil {
		return *e.pending
	}
	return e.cfg
}

// ConfigBounds returns the feasible region.
func (e *Engine) ConfigBounds() Bounds { return e.opts.Bounds }

// QueueLen returns the number of batches waiting (not counting in-flight).
func (e *Engine) QueueLen() int { return len(e.queue) }

// Lag returns unconsumed records in the broker.
func (e *Engine) Lag() int64 { return e.group.Lag() }

// History returns all completed batch stats in completion order.
func (e *Engine) History() []BatchStats { return e.history }

// Reconfigs returns how many configuration changes have been applied.
func (e *Engine) Reconfigs() int { return e.reconfigs }

// TotalRecords returns the number of records produced so far.
func (e *Engine) TotalRecords() int64 { return e.totalRecords }

// DroppedByCap returns records rejected by the ingest cap (back-pressure).
func (e *Engine) DroppedByCap() int64 { return e.droppedByCap }

// TaskRetries returns how many transient task-failure retries were executed.
func (e *Engine) TaskRetries() int { return e.taskRetries }

// Speculations returns how many batches were speculatively re-executed to
// dodge stragglers.
func (e *Engine) Speculations() int { return e.speculations }

// FailedBatches returns batches whose retry budget was exhausted.
func (e *Engine) FailedBatches() int64 { return e.failedBatches }

// FailedRecords returns records inside permanently-failed batches — the only
// processing-loss channel, kept at zero by the chaos acceptance criterion.
func (e *Engine) FailedRecords() int64 { return e.failedRecords }

// ShedEvents returns how many emergency load-shedding episodes fired.
func (e *Engine) ShedEvents() int { return e.shedEvents }

// ListenerPanics returns how many listener callbacks panicked (and were
// isolated).
func (e *Engine) ListenerPanics() int { return e.listenerPanics }

// Redelivered returns records re-fetched after partition outages — the
// at-least-once duplicate count.
func (e *Engine) Redelivered() int64 { return e.group.Redelivered() }

// CommittedLag returns records produced but not yet durably processed.
func (e *Engine) CommittedLag() int64 { return e.group.CommittedLag() }

// FullyCommitted reports whether every produced record was processed by a
// successful batch — the zero-loss invariant once a run has drained.
func (e *Engine) FullyCommitted() bool { return e.group.FullyCommitted() }

// Partitions returns the topic partition count.
func (e *Engine) Partitions() int { return len(e.topic.Partitions) }

// SetIngestCap adjusts the accepted input rate limit (records/second);
// non-positive removes the limit. This is the actuator for the
// back-pressure baseline and the ingest_cap axis of the widened config
// space.
func (e *Engine) SetIngestCap(limit float64) { e.ingestCap = limit }

// IngestCap returns the current accepted input rate limit (records/second);
// 0 means uncapped.
func (e *Engine) IngestCap() float64 { return e.ingestCap }

// SetTaskMaxFailures adjusts the per-batch attempt budget (Spark's
// spark.task.maxFailures, 4 at construction) — the actuator for the
// widened config space's retry_budget axis. Values below 1 clamp to 1
// (every batch gets at least one attempt). The new budget applies to
// attempts finishing after the call.
func (e *Engine) SetTaskMaxFailures(n int) {
	if n < 1 {
		n = 1
	}
	e.maxFailures = n
}

// TaskMaxFailures returns the live per-batch attempt budget.
func (e *Engine) TaskMaxFailures() int { return e.maxFailures }

// SetSpeculativeMultiplier adjusts the speculation slowdown gate (Spark's
// spark.speculation.multiplier, 1.5 at construction): a straggled batch
// whose runtime estimate stretches past this multiple of the healthy one
// re-runs its slow tasks on healthy executors. It is the actuator for the
// widened config space's speculation_threshold axis. Values below 1 clamp
// to 1 (speculate on any slowdown).
func (e *Engine) SetSpeculativeMultiplier(m float64) {
	if m < 1 {
		m = 1
	}
	e.specMultiplier = m
}

// SpeculativeMultiplier returns the live speculation slowdown gate.
func (e *Engine) SpeculativeMultiplier() float64 { return e.specMultiplier }

// RecentRateMean returns the mean observed arrival rate (records/second)
// over the rate window.
func (e *Engine) RecentRateMean() float64 { return e.rates.Mean() }

// RecentRateStd returns the standard deviation of the observed arrival rate
// over the rate window — the signal §5.5 thresholds to detect surges.
func (e *Engine) RecentRateStd() float64 { return e.rates.Std() }

// Clock exposes the engine's clock for controllers that must co-schedule.
func (e *Engine) Clock() *sim.Clock { return e.clock }

// Workload returns the engine's workload.
func (e *Engine) Workload() workload.Workload { return e.wl }
