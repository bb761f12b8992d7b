package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"nostop/internal/engine"
	"nostop/internal/listener"
	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// EngineOptions configure an engine service incarnation.
type EngineOptions struct {
	// Clock is the component's virtual clock. Required.
	Clock *sim.Clock
	// Seed feeds the embedded engine's randomness. Required.
	Seed *rng.Stream
	// Workload is the embedded engine's cost model. Required.
	Workload workload.Workload
	// Broker is the resilient client to the broker service. Required.
	Broker *Client
	// Initial configures the embedded engine (zero values pick the engine
	// defaults; its bounds are the defaults).
	Initial engine.Config
	// Epoch is the incarnation counter; it also derives the consumer
	// instance ID, so the broker rewinds to the committed watermark when a
	// restarted engine reconnects.
	Epoch int
	// MaxFetch is the per-fetch record budget — the load-shedding knob.
	// After an outage the backlog drains at most MaxFetch per fetch, so
	// in-engine queue growth stays bounded while the un-fetched remainder
	// waits durably on the broker (default 50000).
	MaxFetch int64
	// Metrics is shared across components; Tracer feeds the embedded
	// engine's lifecycle spans (sim mode only — it is not safe across
	// component goroutines); Sink carries service-layer events in both
	// modes.
	Metrics *metrics.Registry
	Tracer  *tracing.Tracer
	Sink    *traceSink
}

// Engine service loop periods (virtual time).
const (
	fetchInterval  = time.Second     // broker poll period
	commitInterval = 2 * time.Second // watermark-push period
)

// EngineService wraps engine.Engine + listener.Collector as the networked
// streaming system: it pulls records from the broker service through the
// resilient client, feeds them to the embedded engine via a FeedTrace,
// pushes the committed watermark back, and serves the listener endpoints
// plus /reconfigure to the controller.
//
// Degradation policy ("the engine sheds load when the broker times out"):
// a failed fetch — timeouts, refusals, or an open circuit — enters degraded
// mode: the engine keeps cutting (empty) batches from records already
// ingested, while fetch ticks keep probing through the circuit breaker.
// The first successful fetch exits degraded mode, and the bounded MaxFetch
// budget sheds the recovery burst: the backlog re-enters at a bounded rate
// instead of as one giant batch, with the remainder parked on the broker.
// Every transition is counted and emitted as a trace instant.
//
// The committed-offset invariant: committed = fetchBase + (records the
// engine ingested − records not yet in completed batches). Records are only
// committed after the batch containing them completes, so a crash between
// fetch and completion redelivers them (at-least-once); LostRecords counts
// any broker offsets skipped past the engine's next expected offset —
// which a clean run must keep at zero.
type EngineService struct {
	o        EngineOptions
	eng      *engine.Engine
	col      *listener.Collector
	feed     *FeedTrace
	instance string
	mux      *http.ServeMux

	fetchTicker  *sim.Ticker
	commitTicker *sim.Ticker
	fetchBusy    bool
	commitBusy   bool
	stopped      bool

	// The fetch and commit RPCs reuse their request bodies while busy, and
	// their reply callbacks are bound once.
	fetchBody    []byte
	fetchResp    fetchResponse
	fetchDone    func([]byte, error)
	commitBody   []byte
	commitOffset int64 // the watermark the commit in flight carries
	commitDone   func([]byte, error)

	nextExpected int64 // -1 until the first successful fetch
	fetchBase    int64
	fetched      int64
	lost         int64
	redelivered  int64
	lastCommit   int64

	degraded bool
	enters   int64
	exits    int64

	cFetchErr *metrics.Counter
	cLost     *metrics.Counter
	cRedel    *metrics.Counter
	cShed     *metrics.Counter
	cEnter    *metrics.Counter
	cExit     *metrics.Counter
	gDegraded *metrics.Gauge
	gEpoch    *metrics.Gauge
	gBacklog  *metrics.Gauge
}

// NewEngineService builds one engine incarnation.
func NewEngineService(o EngineOptions) (*EngineService, error) {
	if o.Broker == nil {
		return nil, fmt.Errorf("service: engine needs a broker client")
	}
	if o.MaxFetch <= 0 {
		o.MaxFetch = 50000
	}
	s := &EngineService{o: o, feed: &FeedTrace{}, nextExpected: -1, fetchBase: -1,
		instance: fmt.Sprintf("engine-%d", o.Epoch)}
	s.fetchDone, s.commitDone = s.onFetchReply, s.onCommitReply
	eng, err := engine.New(o.Clock, engine.Options{
		Workload: o.Workload,
		Trace:    s.feed,
		Seed:     o.Seed,
		Initial:  o.Initial,
		Metrics:  o.Metrics,
		Tracer:   o.Tracer,
		// The service layer owns shedding and offset accounting, so the
		// engine-internal emergency shed and ingest cap must stay off:
		// silently dropped records would punch holes in the committed-
		// offset mapping.
		ShedFactor: -1,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	col, err := listener.NewCollector(eng, 0) // the listener's default retention
	if err != nil {
		return nil, err
	}
	col.SetRegistry(o.Metrics)
	s.col = col
	if reg := o.Metrics; reg != nil {
		s.cFetchErr = reg.Counter("nostop_service_engine_fetch_errors_total", "Fetch calls that failed after retries")
		s.cLost = reg.Counter("nostop_service_engine_lost_records_total", "Broker offsets skipped past the next expected offset")
		s.cRedel = reg.Counter("nostop_service_engine_redelivered_total", "Records re-served after a restart and skipped as duplicates")
		s.cShed = reg.Counter("nostop_service_engine_shed_fetches_total", "Budget-limited fetches that left backlog on the broker")
		s.cEnter = reg.Counter("nostop_service_degraded_transitions_total", "Degradation transitions",
			metrics.L("component", PeerEngine), metrics.L("to", "degraded"))
		s.cExit = reg.Counter("nostop_service_degraded_transitions_total", "Degradation transitions",
			metrics.L("component", PeerEngine), metrics.L("to", "normal"))
		s.gDegraded = reg.Gauge("nostop_service_engine_degraded", "1 while the engine is in degraded (shedding) mode")
		s.gEpoch = reg.Gauge("nostop_service_epoch", "Component incarnation", metrics.L("component", PeerEngine))
		s.gBacklog = reg.Gauge("nostop_service_engine_broker_backlog", "Un-fetched records parked on the broker")
	}
	mux := http.NewServeMux()
	col.Mount(mux)
	mux.HandleFunc("POST /reconfigure", s.handleReconfigure)
	mux.HandleFunc("GET /config", s.handleConfig)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"role": PeerEngine, "epoch": o.Epoch})
	})
	mux.HandleFunc("GET /invariants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Snapshot())
	})
	s.mux = mux
	return s, nil
}

// Handler implements component.
func (s *EngineService) Handler() http.Handler { return s.mux }

// Engine exposes the embedded engine (for sim-mode assertions).
func (s *EngineService) Engine() *engine.Engine { return s.eng }

// Start implements component: starts the embedded engine and the
// fetch/commit loops on the virtual clock.
func (s *EngineService) Start() error {
	if err := s.eng.Start(); err != nil {
		return err
	}
	s.gEpoch.Set(float64(s.o.Epoch))
	s.fetchTicker = s.o.Clock.NewTicker(fetchInterval, s.fetchTick)
	s.commitTicker = s.o.Clock.NewTicker(commitInterval, s.commitTick)
	return nil
}

// Stop implements component.
func (s *EngineService) Stop() {
	s.stopped = true
	s.eng.Stop()
	if s.fetchTicker != nil {
		s.fetchTicker.Stop()
	}
	if s.commitTicker != nil {
		s.commitTicker.Stop()
	}
}

// committedOffset maps engine progress back into broker offset space.
func (s *EngineService) committedOffset() int64 {
	if s.fetchBase < 0 {
		return 0
	}
	return s.fetchBase + (s.eng.TotalRecords() - s.eng.CommittedLag())
}

func (s *EngineService) fetchTick() {
	if s.stopped || s.fetchBusy {
		return
	}
	s.fetchBusy = true
	s.fetchBody = fetchRequest{
		Consumer:  s.instance,
		Committed: s.committedOffset(),
		Max:       s.o.MaxFetch,
	}.appendJSON(s.fetchBody[:0])
	s.o.Broker.Call("POST", "/fetch", s.fetchBody, s.fetchDone)
}

func (s *EngineService) onFetchReply(respBody []byte, err error) {
	s.fetchBusy = false
	if s.stopped {
		return
	}
	if err != nil {
		s.cFetchErr.Inc()
		s.enterDegraded(err)
		return
	}
	s.fetchResp = fetchResponse{}
	if err := unmarshal(respBody, &s.fetchResp); err != nil {
		s.cFetchErr.Inc()
		return
	}
	s.exitDegraded()
	s.onFetch(s.fetchResp)
}

func (s *EngineService) onFetch(resp fetchResponse) {
	if s.nextExpected < 0 {
		s.nextExpected = resp.From
		s.fetchBase = resp.From
	}
	if resp.From > s.nextExpected {
		gap := resp.From - s.nextExpected
		s.lost += gap
		s.cLost.Add(float64(gap))
		s.o.Sink.instant(PidServiceEngine, TidDegrade, "invariant", "records-lost",
			tracing.Args{"gap": gap, "from": resp.From})
		s.nextExpected = resp.From
	}
	if overlap := s.nextExpected - resp.From; overlap > 0 {
		dup := overlap
		if dup > resp.Count {
			dup = resp.Count
		}
		s.redelivered += dup
		s.cRedel.Add(float64(dup))
	}
	if fresh := (resp.From + resp.Count) - s.nextExpected; fresh > 0 {
		s.feed.Add(s.o.Clock.Now(), fetchInterval, fresh)
		s.nextExpected += fresh
		s.fetched += fresh
	}
	backlog := resp.Head - s.nextExpected
	if backlog < 0 {
		backlog = 0
	}
	s.gBacklog.Set(float64(backlog))
	if resp.Count == s.o.MaxFetch && backlog > 0 {
		// Budget-limited: this is shedding in action — the rest of the
		// backlog stays durable on the broker for later fetches.
		s.cShed.Inc()
	}
}

func (s *EngineService) commitTick() {
	if s.stopped || s.commitBusy || s.fetchBase < 0 {
		return
	}
	c := s.committedOffset()
	if c == s.lastCommit {
		return
	}
	s.commitBusy = true
	s.commitOffset = c
	s.commitBody = commitRequest{Committed: c}.appendJSON(s.commitBody[:0])
	s.o.Broker.Call("POST", "/commit", s.commitBody, s.commitDone)
}

func (s *EngineService) onCommitReply(_ []byte, err error) {
	s.commitBusy = false
	if err == nil {
		s.lastCommit = s.commitOffset
	}
	// Commit failures need no special handling: fetches piggyback the
	// watermark, and the fetch path owns degradation.
}

func (s *EngineService) enterDegraded(err error) {
	if s.degraded {
		return
	}
	s.degraded = true
	s.enters++
	s.cEnter.Inc()
	s.gDegraded.Set(1)
	// Batches cut while the broker is unreachable are starvation artifacts,
	// not measurements: mark them FaultActive so the controller's
	// failure-aware admission excludes them and re-calibrates on the first
	// clean batch after recovery.
	s.eng.SetFaultActive(true)
	s.o.Sink.instant(PidServiceEngine, TidDegrade, "degrade", "engine-degraded",
		tracing.Args{"cause": err.Error()})
}

func (s *EngineService) exitDegraded() {
	if !s.degraded {
		return
	}
	s.degraded = false
	s.exits++
	s.cExit.Inc()
	s.gDegraded.Set(0)
	s.eng.SetFaultActive(false)
	s.o.Sink.instant(PidServiceEngine, TidDegrade, "degrade", "engine-recovered", nil)
}

func (s *EngineService) handleReconfigure(w http.ResponseWriter, r *http.Request) {
	var req configJSON
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad reconfigure request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if err := s.eng.Reconfigure(req.config()); err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	writeJSON(w, toConfigJSON(s.eng.Config()))
}

func (s *EngineService) handleConfig(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, configResponse{
		Config: toConfigJSON(s.eng.Config()),
		Bounds: toBoundsJSON(s.eng.ConfigBounds()),
	})
}

// Snapshot implements component.
func (s *EngineService) Snapshot() InvariantSnapshot {
	return InvariantSnapshot{
		Role:            PeerEngine,
		Epoch:           s.o.Epoch,
		VirtualSec:      secs(s.o.Clock.Now()),
		FetchedRecords:  s.fetched,
		LostRecords:     s.lost,
		Redelivered:     s.redelivered,
		QueueLen:        s.eng.QueueLen(),
		CommittedLag:    s.eng.CommittedLag(),
		CommittedOffset: s.committedOffset(),
		FailedRecords:   s.eng.FailedRecords(),
		ListenerPanics:  s.eng.ListenerPanics(),
		Batches:         len(s.eng.History()),
		Degraded:        s.degraded,
		DegradedEnters:  s.enters,
		DegradedExits:   s.exits,
	}
}
