package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/listener"
	"nostop/internal/metrics"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// ControllerOptions configure a controller service incarnation.
type ControllerOptions struct {
	// Clock is the component's virtual clock. Required.
	Clock *sim.Clock
	// Engine is the resilient client to the engine service's listener
	// endpoints. Required.
	Engine *Client
	// Epoch is the incarnation counter.
	Epoch int
	// Core configures the embedded NoStop SPSA controller (Seed, gains,
	// pause rules, ...). Metrics/Tracer inside it follow the same rules as
	// EngineOptions.
	Core core.Options
	// Metrics/Sink observe the service layer.
	Metrics *metrics.Registry
	Sink    *traceSink
}

// pollInterval is the controller's status/batch poll period (virtual time).
const pollInterval = time.Second

// ControllerService runs the unmodified core.Controller against a remote
// engine: EngineProxy satisfies core.System by polling GET /status and
// GET /batches?since= through the resilient client and pushing
// POST /reconfigure back — the same SPSA code path as in-process mode, per
// the tentpole requirement.
//
// Degradation policy ("the controller freezes its last-known-good
// configuration when the listener is unreachable"): when a poll fails the
// controller freezes — Reconfigure calls are suppressed so the engine keeps
// the last configuration that was known to work — and on the first
// successful poll after recovery it resumes, marking the batches of the
// first poll that delivers any FaultActive. The core's failure-aware admission (PR 5) then excludes the
// outage-window batches from SPSA measurements and re-calibrates on the
// first clean batch, exactly as it does for co-located fault windows.
type ControllerService struct {
	o     ControllerOptions
	proxy *EngineProxy
	ctl   *core.Controller
	mux   *http.ServeMux

	ticker    *sim.Ticker
	busy      bool
	stopped   bool
	connected bool

	frozen     bool
	freezes    int64
	resumes    int64
	suppressed int64
	panics     int64
	markNext   bool
	// last is the report delivered to the core most recently; its BatchID
	// is -1 before the first. IDs restart at 0 in every engine
	// incarnation, so the ID alone cannot tell a restarted engine from the
	// one it came from.
	last listener.BatchReport
	// lastElem is the raw bytes of last's element in the reply that
	// delivered it, empty until a reply in the canonical form has
	// delivered a report. A poll whose first element has exactly these
	// bytes repeats last, so that element is skipped, not decoded.
	lastElem []byte
	reports  []listener.BatchReport // poll scratch, reused

	// The polls decode into a reused status, their reply callbacks are
	// bound once, and the /batches path is rebuilt only when its cursor
	// moves.
	status       listener.Status
	statusDone   func([]byte, error)
	batchesDone  func([]byte, error)
	batchesSince int64
	batchesPath  string

	cFreeze     *metrics.Counter
	cResume     *metrics.Counter
	cSuppressed *metrics.Counter
	cPanics     *metrics.Counter
	cPollErr    *metrics.Counter
	gFrozen     *metrics.Gauge
	gEpoch      *metrics.Gauge
}

// EngineProxy satisfies core.System over the network. All state is cached
// from polls; reads are synchronous and cheap, Reconfigure is optimistic
// (the cache updates immediately, the RPC confirms asynchronously, and poll
// failures surface as a freeze rather than a synchronous error).
type EngineProxy struct {
	svc          *ControllerService
	clock        *sim.Clock
	listeners    []engine.Listener
	cfg          engine.Config
	bounds       engine.Bounds
	queueLen     int
	rateMean     float64
	rateStd      float64
	reconfigBusy bool
}

// AddListener implements core.System.
func (p *EngineProxy) AddListener(l engine.Listener) { p.listeners = append(p.listeners, l) }

// Clock implements core.System.
func (p *EngineProxy) Clock() *sim.Clock { return p.clock }

// Config implements core.System.
func (p *EngineProxy) Config() engine.Config { return p.cfg }

// ConfigBounds implements core.System.
func (p *EngineProxy) ConfigBounds() engine.Bounds { return p.bounds }

// QueueLen implements core.System.
func (p *EngineProxy) QueueLen() int { return p.queueLen }

// RecentRateMean implements core.System.
func (p *EngineProxy) RecentRateMean() float64 { return p.rateMean }

// RecentRateStd implements core.System.
func (p *EngineProxy) RecentRateStd() float64 { return p.rateStd }

// Reconfigure implements core.System. While frozen the call is suppressed —
// the engine holds the last-known-good configuration.
func (p *EngineProxy) Reconfigure(cfg engine.Config) error {
	s := p.svc
	if s.frozen {
		s.suppressed++
		s.cSuppressed.Inc()
		return nil
	}
	cfg = p.bounds.Clamp(cfg)
	p.cfg = cfg
	p.reconfigBusy = true
	body, _ := json.Marshal(toConfigJSON(cfg))
	s.o.Engine.Call("POST", "/reconfigure", body, func(respBody []byte, err error) {
		p.reconfigBusy = false
		if err != nil {
			// The poll loop owns freezing; a lost reconfigure will also
			// show up there. The next status poll resyncs the cache.
			s.cPollErr.Inc()
		}
	})
	return nil
}

// NewControllerService builds one controller incarnation. The SPSA core is
// constructed lazily on the first successful handshake with the engine
// (GET /config supplies the bounds core.New needs), so a controller started
// before — or restarted during — an engine outage connects by itself.
func NewControllerService(o ControllerOptions) (*ControllerService, error) {
	if o.Engine == nil {
		return nil, fmt.Errorf("service: controller needs an engine client")
	}
	s := &ControllerService{o: o, last: listener.BatchReport{BatchID: -1}}
	s.statusDone, s.batchesDone = s.onStatus, s.onBatches
	s.proxy = &EngineProxy{svc: s, clock: o.Clock}
	if reg := o.Metrics; reg != nil {
		s.cFreeze = reg.Counter("nostop_service_degraded_transitions_total", "Degradation transitions",
			metrics.L("component", PeerController), metrics.L("to", "frozen"))
		s.cResume = reg.Counter("nostop_service_degraded_transitions_total", "Degradation transitions",
			metrics.L("component", PeerController), metrics.L("to", "normal"))
		s.cSuppressed = reg.Counter("nostop_service_controller_suppressed_reconfigs_total",
			"Reconfigure calls suppressed while frozen")
		s.cPanics = reg.Counter("nostop_service_controller_callback_panics_total",
			"Panics recovered while delivering batch reports to the SPSA core")
		s.cPollErr = reg.Counter("nostop_service_controller_poll_errors_total",
			"Engine polls that failed after retries")
		s.gFrozen = reg.Gauge("nostop_service_controller_frozen", "1 while the controller holds its last-known-good configuration")
		s.gEpoch = reg.Gauge("nostop_service_epoch", "Component incarnation", metrics.L("component", PeerController))
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, map[string]any{"role": PeerController, "epoch": o.Epoch})
	})
	mux.HandleFunc("GET /controller", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Snapshot())
	})
	mux.HandleFunc("GET /invariants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.Snapshot())
	})
	s.mux = mux
	return s, nil
}

// Handler implements component.
func (s *ControllerService) Handler() http.Handler { return s.mux }

// Start implements component.
func (s *ControllerService) Start() error {
	s.gEpoch.Set(float64(s.o.Epoch))
	s.ticker = s.o.Clock.NewTicker(pollInterval, s.pollTick)
	return nil
}

// Stop implements component.
func (s *ControllerService) Stop() {
	s.stopped = true
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

func (s *ControllerService) pollTick() {
	if s.stopped || s.busy {
		return
	}
	s.busy = true
	if !s.connected {
		s.handshake()
		return
	}
	s.o.Engine.Call("GET", "/status", nil, s.statusDone)
}

func (s *ControllerService) onStatus(body []byte, err error) {
	if s.stopped {
		s.busy = false
		return
	}
	if err != nil {
		s.pollFailed(err)
		return
	}
	s.status = listener.Status{}
	if err := listener.DecodeStatus(body, &s.status); err != nil {
		s.pollFailed(err)
		return
	}
	st := &s.status
	s.proxy.queueLen = st.QueueLength
	s.proxy.rateMean = st.RateMean
	s.proxy.rateStd = st.RateStd
	if !s.proxy.reconfigBusy {
		s.proxy.cfg = s.proxy.bounds.Clamp(engine.Config{
			BatchInterval: time.Duration(st.BatchIntervalMs) * time.Millisecond,
			Executors:     st.Executors,
		})
	}
	s.pollBatches()
}

// handshake fetches config+bounds and constructs the SPSA core. Until it
// succeeds the controller just retries on its poll ticker.
func (s *ControllerService) handshake() {
	s.o.Engine.Call("GET", "/config", nil, func(body []byte, err error) {
		defer func() { s.busy = false }()
		if s.stopped || err != nil {
			return
		}
		var resp configResponse
		if err := json.Unmarshal(body, &resp); err != nil {
			return
		}
		s.proxy.cfg = resp.Config.config()
		s.proxy.bounds = resp.Bounds.bounds()
		ctl, err := core.New(s.proxy, s.o.Core)
		if err != nil {
			// Misconfiguration, not a transient: surface loudly via the
			// snapshot and stop retrying.
			s.stopped = true
			s.o.Sink.instant(PidServiceController, TidDegrade, "degrade", "controller-config-error",
				tracing.Args{"err": err.Error()})
			return
		}
		if err := ctl.Attach(); err != nil {
			s.stopped = true
			return
		}
		s.ctl = ctl
		s.connected = true
		s.o.Sink.instant(PidServiceController, TidDegrade, "degrade", "controller-connected", nil)
	})
}

// pollBatches tails the engine's batch stream. Once a report has been
// delivered it asks for one report of overlap: the same engine answers
// with that report first, and any other answer means the engine restarted,
// so the cursor resets and the next poll takes the new engine's whole
// history. This costs no extra RPC and no field on the wire, and the
// overlap costs no decode when it comes back as the bytes it came in.
func (s *ControllerService) pollBatches() {
	since := s.last.BatchID
	if since >= 0 {
		since--
	}
	if s.batchesPath == "" || since != s.batchesSince {
		s.batchesSince = since
		s.batchesPath = "/batches?since=" + strconv.FormatInt(since, 10)
	}
	s.o.Engine.Call("GET", s.batchesPath, nil, s.batchesDone)
}

func (s *ControllerService) onBatches(body []byte, err error) {
	if s.stopped {
		s.busy = false
		return
	}
	if err != nil {
		s.pollFailed(err)
		return
	}
	reports, skipped, lastElem, err := listener.DecodeReports(body, s.lastElem, s.reports[:0])
	if err != nil {
		s.pollFailed(err)
		return
	}
	s.reports = reports
	s.resume()
	if s.last.BatchID >= 0 && !skipped {
		if len(reports) == 0 || reports[0] != s.last {
			// The batches the new engine cut so far went unseen, as in an
			// outage: mark them FaultActive on delivery.
			s.last = listener.BatchReport{BatchID: -1}
			s.lastElem = s.lastElem[:0]
			s.markNext = true
			s.busy = false
			s.o.Sink.instant(PidServiceController, TidDegrade, "degrade", "controller-engine-restarted", nil)
			return
		}
		reports = reports[1:]
	}
	mark := s.markNext
	if len(reports) > 0 {
		// The mark holds until a poll delivers: a restarted engine that
		// has not completed a batch yet answers with nothing.
		s.markNext = false
	}
	for _, r := range reports {
		bs := toBatchStats(r)
		if mark {
			// First delivery after an outage: these batches completed (or
			// piled up) while the controller was blind. Marking them
			// FaultActive routes them through the core's failure-aware
			// admission — excluded from measurements, re-calibration on the
			// first clean batch after them.
			bs.FaultActive = true
		}
		s.deliver(bs)
		s.last = r
	}
	if len(reports) > 0 {
		s.lastElem = append(s.lastElem[:0], lastElem...)
	}
	s.busy = false
}

func (s *ControllerService) deliver(bs engine.BatchStats) {
	for _, l := range s.proxy.listeners {
		func() {
			defer func() {
				if r := recover(); r != nil {
					s.panics++
					s.cPanics.Inc()
					s.o.Sink.instant(PidServiceController, TidDegrade, "invariant",
						"controller-panic", tracing.Args{"panic": fmt.Sprint(r)})
				}
			}()
			l.OnBatchComplete(bs)
		}()
	}
}

func (s *ControllerService) pollFailed(err error) {
	s.busy = false
	s.cPollErr.Inc()
	if s.frozen {
		return
	}
	s.frozen = true
	s.freezes++
	s.cFreeze.Inc()
	s.gFrozen.Set(1)
	s.o.Sink.instant(PidServiceController, TidDegrade, "degrade", "controller-frozen",
		tracing.Args{"cause": err.Error(), "heldConfig": s.proxy.cfg.String()})
}

func (s *ControllerService) resume() {
	if !s.frozen {
		return
	}
	s.frozen = false
	s.resumes++
	s.cResume.Inc()
	s.gFrozen.Set(0)
	s.markNext = true
	s.o.Sink.instant(PidServiceController, TidDegrade, "degrade", "controller-resumed",
		tracing.Args{"heldConfig": s.proxy.cfg.String()})
}

// toBatchStats reverses listener.Report for remote delivery to the core.
func toBatchStats(r listener.BatchReport) engine.BatchStats {
	ms := func(v int64) time.Duration { return time.Duration(v) * time.Millisecond }
	return engine.BatchStats{
		ID:      r.BatchID,
		Records: r.NumRecords,
		Config: engine.Config{
			BatchInterval: ms(r.BatchIntervalMs),
			Executors:     r.Executors,
		},
		CutAt:              sim.Time(r.SubmissionTimeSec * float64(time.Second)),
		SchedulingDelay:    ms(r.SchedulingDelayMs),
		ProcessingTime:     ms(r.ProcessingDelayMs),
		EndToEndDelay:      ms(r.EndToEndDelayMs),
		FirstAfterReconfig: r.FirstAfterChange,
		FaultActive:        r.FaultActive,
		QueueLen:           r.QueueLength,
	}
}

// Snapshot implements component.
func (s *ControllerService) Snapshot() InvariantSnapshot {
	snap := InvariantSnapshot{
		Role:                PeerController,
		Epoch:               s.o.Epoch,
		VirtualSec:          secs(s.o.Clock.Now()),
		Frozen:              s.frozen,
		DegradedEnters:      s.freezes,
		DegradedExits:       s.resumes,
		SuppressedReconfigs: s.suppressed,
		ListenerPanicCount:  s.panics,
	}
	if s.ctl != nil {
		snap.Recalibrations = s.ctl.Recalibrations()
		snap.Iterations = len(s.ctl.Iterations())
		snap.Phase = fmt.Sprint(s.ctl.Phase())
	}
	return snap
}
