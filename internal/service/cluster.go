package service

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"nostop/internal/core"
	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
	"nostop/internal/workload"
)

// Mode selects how the trio is supervised.
type Mode int

const (
	// ModeSim shares one sim.Clock and delivers RPCs on the event loop —
	// fully deterministic, replayable, zero goroutines.
	ModeSim Mode = iota
	// ModeWall gives each component its own paced clock, mutex, and real
	// HTTP server on 127.0.0.1.
	ModeWall
)

// component is the contract every service implementation satisfies so the
// supervisor can kill and restart incarnations uniformly.
type component interface {
	Handler() http.Handler
	Start() error
	Stop()
	Snapshot() InvariantSnapshot
}

// ClusterConfig assembles a broker/engine/controller trio.
type ClusterConfig struct {
	Mode Mode
	// Seed roots every stream: network latency, RPC jitter, engine noise,
	// SPSA perturbations. Same seed + ModeSim ⇒ byte-identical runs.
	Seed uint64
	// Workload and Trace drive the system (both required).
	Workload workload.Workload
	Trace    ratetrace.Trace
	// Initial configures the engine (its bounds are the defaults); it is
	// also the SPSA controller's θ_initial.
	Initial engine.Config
	// MaxFetch is the engine's per-fetch shedding budget (0: default).
	MaxFetch int64
	// RPC tunes every client; Jitter/Metrics/Trace/Pid are
	// supervisor-managed per link.
	RPC ClientOptions
	// Speedup paces wall-mode virtual clocks (default 20× real time).
	Speedup float64
	// Clock supplies the shared sim-mode clock (nil: a fresh one).
	Clock *sim.Clock
	// Tracer records the full engine+controller+service timeline in sim
	// mode (ignored in wall mode — it is not goroutine-safe).
	Tracer *tracing.Tracer
	// WallTraceEvents, when positive, enables a wall-mode service-layer
	// trace (RPC/breaker/degradation/chaos instants) with this capacity.
	WallTraceEvents int
}

// Cluster supervises the trio: construction, kill/restart chaos (it is the
// process-level fault target internal/faults drives), link faults, and
// invariant collection.
type Cluster struct {
	cfg   ClusterConfig
	clock *sim.Clock // sim mode only
	reg   *metrics.Registry
	sink  *traceSink
	root  *rng.Stream

	simnet  *SimNet
	wallnet *WallNet

	procs map[string]*proc
	order []string

	started bool
	// chaosMu serialises wall-mode supervisor operations (chaos injector
	// goroutine vs shutdown).
	chaosMu   sync.Mutex
	cKills    *metrics.Counter
	cRestarts *metrics.Counter
}

// proc is one supervised component slot across incarnations.
type proc struct {
	c     *Cluster
	name  string
	pid   int
	mu    sync.Mutex // wall mode: guards comp state, clock, timers
	clock *sim.Clock
	tb    Timebase
	comp  component // guarded by mu
	epoch int
	down  bool // guarded by mu

	srv  *http.Server
	addr string // concrete listen address, stable across restarts
	pace *pacer
}

// NewCluster validates the config and builds the supervisor (components are
// created by Start).
func NewCluster(cfg ClusterConfig) (*Cluster, error) {
	if cfg.Workload == nil || cfg.Trace == nil {
		return nil, fmt.Errorf("service: cluster needs a workload and a rate trace")
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Speedup <= 0 {
		cfg.Speedup = 20
	}
	c := &Cluster{cfg: cfg, reg: metrics.NewRegistry(), root: rng.New(cfg.Seed),
		procs: make(map[string]*proc), order: []string{PeerBroker, PeerEngine, PeerController}}
	c.cKills = c.reg.Counter("nostop_service_chaos_kills_total", "Components killed by chaos")
	c.cRestarts = c.reg.Counter("nostop_service_chaos_restarts_total", "Components restarted by chaos")
	switch cfg.Mode {
	case ModeSim:
		c.clock = cfg.Clock
		if c.clock == nil {
			c.clock = sim.NewClock()
		}
		c.simnet = NewSimNet(c.clock, c.root.Split("net"))
		c.sink = newSimTraceSink(cfg.Tracer)
	case ModeWall:
		c.wallnet = NewWallNet(c.root.Split("net"), cfg.RPC.Timeout+2*time.Second)
		if cfg.WallTraceEvents > 0 {
			c.sink = newWallTraceSink(cfg.WallTraceEvents, cfg.Speedup)
		}
	default:
		return nil, fmt.Errorf("service: unknown mode %d", cfg.Mode)
	}
	c.sink.nameLanes()
	pids := map[string]int{PeerBroker: PidServiceBroker, PeerEngine: PidServiceEngine, PeerController: PidServiceController}
	for _, name := range c.order {
		p := &proc{c: c, name: name, pid: pids[name]}
		if cfg.Mode == ModeSim {
			p.clock = c.clock
			p.tb = SimTimebase{Clock: c.clock}
		} else {
			p.clock = sim.NewClock()
			p.tb = NewWallTimebase(&p.mu)
		}
		c.procs[name] = p
	}
	return c, nil
}

// Clock returns the shared sim-mode clock (nil in wall mode).
func (c *Cluster) Clock() *sim.Clock { return c.clock }

// Registry returns the shared metrics registry.
func (c *Cluster) Registry() *metrics.Registry { return c.reg }

// WallTracer returns the wall-mode service-layer tracer (nil unless
// WallTraceEvents was set).
func (c *Cluster) WallTracer() *tracing.Tracer { return c.sink.tracer() }

// Proc returns a component's current incarnation (sim-mode assertions).
//
//nostop:allow lockguard -- sim-mode assertion helper: the event loop is single-threaded, p.mu is a wall-mode concern
func (c *Cluster) Component(name string) component { return c.procs[name].comp }

// client builds the resilient client for one directed link, seeding jitter
// per incarnation so restarts stay deterministic in sim mode.
func (c *Cluster) client(p *proc, to string) *Client {
	var tr Transport
	if c.cfg.Mode == ModeSim {
		tr = c.simnet.Transport(p.name, to)
	} else {
		tr = c.wallnet.Transport(p.name, to, p.runLocked)
	}
	o := c.cfg.RPC
	o.Jitter = c.root.Split(fmt.Sprintf("rpc/%s->%s/epoch-%d", p.name, to, p.epoch))
	o.Metrics = c.reg
	o.Trace = c.sink
	o.Pid = p.pid
	return NewClient(p.name, to, p.tb, tr, o)
}

// runLocked executes fn under the proc mutex (wall-mode RPC completions and
// timer callbacks re-enter component state through here).
func (p *proc) runLocked(fn func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	fn()
}

// build constructs a proc's component for the current epoch.
func (p *proc) build() (component, error) {
	c := p.c
	// Only sim mode traces: the tracer is not goroutine-safe.
	var tracer *tracing.Tracer
	if c.cfg.Mode == ModeSim {
		tracer = c.cfg.Tracer
	}
	switch p.name {
	case PeerBroker:
		return NewBrokerService(BrokerOptions{
			Clock:   p.clock,
			Trace:   c.cfg.Trace,
			Epoch:   p.epoch,
			Metrics: c.reg,
		}), nil
	case PeerEngine:
		return NewEngineService(EngineOptions{
			Clock:    p.clock,
			Seed:     c.root.Split(fmt.Sprintf("engine/epoch-%d", p.epoch)),
			Workload: c.cfg.Workload,
			Broker:   c.client(p, PeerBroker),
			Initial:  c.cfg.Initial,
			Epoch:    p.epoch,
			MaxFetch: c.cfg.MaxFetch,
			Metrics:  c.reg,
			Tracer:   tracer,
			Sink:     c.sink,
		})
	case PeerController:
		return NewControllerService(ControllerOptions{
			Clock:  p.clock,
			Engine: c.client(p, PeerEngine),
			Epoch:  p.epoch,
			Core: core.Options{
				Initial: c.cfg.Initial,
				Seed:    c.root.Split(fmt.Sprintf("spsa/epoch-%d", p.epoch)),
				Metrics: c.reg,
				Tracer:  tracer,
			},
			Metrics: c.reg,
			Sink:    c.sink,
		})
	}
	return nil, fmt.Errorf("service: unknown component %q", p.name)
}

// Start builds and starts all three components (broker first, so the engine
// 's first fetch finds it; the controller handshakes by itself).
func (c *Cluster) Start() error {
	if c.started {
		return fmt.Errorf("service: cluster already started")
	}
	c.started = true
	for _, name := range c.order {
		if err := c.startProc(c.procs[name]); err != nil {
			return fmt.Errorf("service: start %s: %w", name, err)
		}
	}
	return nil
}

func (c *Cluster) startProc(p *proc) error {
	comp, err := p.build()
	if err != nil {
		return err
	}
	if c.cfg.Mode == ModeSim {
		//nostop:allow lockguard -- sim mode: single-threaded event loop; p.mu is a wall-mode concern
		p.comp = comp
		//nostop:allow lockguard -- sim mode: single-threaded event loop
		p.down = false
		c.simnet.Register(p.name, comp.Handler())
		return comp.Start()
	}
	p.mu.Lock()
	p.comp = comp
	p.down = false
	err = comp.Start()
	base := p.clock.Now()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	if err := c.listenProc(p); err != nil {
		return err
	}
	p.pace = startPacer(p.clock, &p.mu, c.cfg.Speedup, base)
	return nil
}

// listenProc binds the wall-mode HTTP server, reusing the proc's concrete
// address across restarts so peers' base URLs stay valid.
func (c *Cluster) listenProc(p *proc) error {
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s on %s: %w", p.name, addr, err)
	}
	p.addr = ln.Addr().String()
	c.wallnet.SetURL(p.name, "http://"+p.addr)
	p.srv = &http.Server{
		Handler:           http.HandlerFunc(p.serveLocked),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go p.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	return nil
}

// serveLocked dispatches to the current incarnation under the proc mutex.
func (p *proc) serveLocked(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.down || p.comp == nil {
		http.Error(w, "component down", http.StatusServiceUnavailable)
		return
	}
	p.comp.Handler().ServeHTTP(w, r)
}

// Addr returns a wall-mode component's listen address ("" in sim mode).
func (c *Cluster) Addr(name string) string { return c.procs[name].addr }

// KillPeer stops a component's incarnation: in sim mode the network starts
// refusing it; in wall mode its HTTP server closes (real connection
// refusals) and its pacer stops. State dies with the incarnation — a later
// RestartPeer builds a fresh component, which is the whole point of the
// offset/redelivery protocol. Implements the faults.ProcTarget surface.
func (c *Cluster) KillPeer(name string) error {
	p := c.procs[name]
	if p == nil {
		return fmt.Errorf("service: unknown peer %q", name)
	}
	c.chaosMu.Lock()
	defer c.chaosMu.Unlock()
	//nostop:allow lockguard -- chaos ops serialise on chaosMu; every wall-mode writer of comp/down holds it too
	if p.down || p.comp == nil {
		return fmt.Errorf("service: peer %q already down", name)
	}
	c.cKills.Inc()
	c.sink.instant(PidSupervisor, TidChaos, "chaos", "kill-"+name,
		tracing.Args{"epoch": p.epoch})
	if c.cfg.Mode == ModeSim {
		//nostop:allow lockguard -- sim mode: single-threaded event loop; p.mu is a wall-mode concern
		p.comp.Stop()
		//nostop:allow lockguard -- sim mode: single-threaded event loop
		p.down = true
		c.simnet.SetDown(name, true)
		return nil
	}
	p.pace.stop()
	p.mu.Lock()
	p.comp.Stop()
	p.down = true
	p.mu.Unlock()
	p.srv.Close()
	return nil
}

// RestartPeer builds and starts a fresh incarnation (epoch+1) of a killed
// component on the same address and virtual clock. Implements the
// faults.ProcTarget surface.
func (c *Cluster) RestartPeer(name string) error {
	p := c.procs[name]
	if p == nil {
		return fmt.Errorf("service: unknown peer %q", name)
	}
	c.chaosMu.Lock()
	defer c.chaosMu.Unlock()
	//nostop:allow lockguard -- chaos ops serialise on chaosMu; every wall-mode writer of comp/down holds it too
	if !p.down {
		return fmt.Errorf("service: peer %q is not down", name)
	}
	p.epoch++
	c.cRestarts.Inc()
	c.sink.instant(PidSupervisor, TidChaos, "chaos", "restart-"+name,
		tracing.Args{"epoch": p.epoch})
	if c.cfg.Mode == ModeSim {
		comp, err := p.build()
		if err != nil {
			return err
		}
		//nostop:allow lockguard -- sim mode: single-threaded event loop; p.mu is a wall-mode concern
		p.comp = comp
		//nostop:allow lockguard -- sim mode: single-threaded event loop
		p.down = false
		c.simnet.Register(name, comp.Handler())
		return comp.Start()
	}
	return c.startProc(p)
}

// SetLinkFault injects a network fault on a directed link at the RPC layer.
// Implements the faults.ProcTarget surface.
func (c *Cluster) SetLinkFault(from, to string, refuse bool, dropProb float64, delay time.Duration) error {
	if c.procs[from] == nil || c.procs[to] == nil {
		return fmt.Errorf("service: unknown link %s->%s", from, to)
	}
	f := LinkFault{Refuse: refuse, DropProb: dropProb, Delay: delay}
	c.sink.instant(PidSupervisor, TidChaos, "chaos", "link-"+from+"->"+to,
		tracing.Args{"fault": f.String()})
	if c.cfg.Mode == ModeSim {
		c.simnet.SetLink(from, to, f)
	} else {
		c.wallnet.SetLink(from, to, f)
	}
	return nil
}

// ClearLinkFault heals a directed link. Implements the faults.ProcTarget
// surface.
func (c *Cluster) ClearLinkFault(from, to string) error {
	return c.SetLinkFault(from, to, false, 0, 0)
}

// RunSim advances the shared sim-mode clock by d of virtual time.
func (c *Cluster) RunSim(d time.Duration) {
	if c.clock == nil {
		panic("service: RunSim on a wall-mode cluster")
	}
	c.clock.RunUntil(c.clock.Now() + sim.Time(d))
}

// Stop halts every live component, pacer, and server. In wall mode it then
// stops every component's timers and the network, so no RPC deadline and
// no exchange in flight reaches a component after Stop returns.
func (c *Cluster) Stop() {
	c.chaosMu.Lock()
	defer c.chaosMu.Unlock()
	for _, name := range c.order {
		p := c.procs[name]
		//nostop:allow lockguard -- chaos ops serialise on chaosMu; every wall-mode writer of comp/down holds it too
		if p.comp == nil || p.down {
			continue
		}
		if c.cfg.Mode == ModeSim {
			//nostop:allow lockguard -- sim mode: single-threaded event loop
			p.comp.Stop()
			continue
		}
		p.pace.stop()
		p.mu.Lock()
		p.comp.Stop()
		p.mu.Unlock()
		p.srv.Close()
	}
	if c.wallnet != nil {
		for _, name := range c.order {
			c.procs[name].tb.(*WallTimebase).stop()
		}
		c.wallnet.Stop()
	}
}

// Snapshots collects every component's invariant snapshot in topology
// order. Killed components report their last state.
func (c *Cluster) Snapshots() []InvariantSnapshot {
	var out []InvariantSnapshot
	for _, name := range c.order {
		p := c.procs[name]
		//nostop:allow lockguard -- shutdown/assertion path: runs after Stop, when pacers and chaos are quiet
		if p.comp == nil {
			continue
		}
		if c.cfg.Mode == ModeSim {
			//nostop:allow lockguard -- sim mode: single-threaded event loop
			out = append(out, p.comp.Snapshot())
			continue
		}
		p.mu.Lock()
		out = append(out, p.comp.Snapshot())
		p.mu.Unlock()
	}
	return out
}
