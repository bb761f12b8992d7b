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
// invariant collection. Every operation takes one path in both modes; what
// differs sits behind its modeNet.
type Cluster struct {
	cfg   ClusterConfig
	clock *sim.Clock // sim mode only
	reg   *metrics.Registry
	sink  *traceSink
	root  *rng.Stream
	net   modeNet

	procs map[string]*proc
	order []string

	started bool
	// chaosMu serialises supervisor operations (a wall-mode chaos
	// injector's goroutines vs shutdown).
	chaosMu   sync.Mutex
	cKills    *metrics.Counter
	cRestarts *metrics.Counter
}

// proc is one supervised component slot across incarnations.
type proc struct {
	c     *Cluster
	name  string
	pid   int
	mu    sync.Mutex // guards comp state, clock, timers; contended only in wall mode
	clock *sim.Clock
	tb    Timebase
	comp  component // guarded by mu
	epoch int
	down  bool // guarded by mu

	srv  *http.Server // wall mode
	addr string       // wall mode: concrete listen address, stable across restarts
	pace *pacer       // wall mode
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
		c.net = simMode{NewSimNet(c.clock, c.root.Split("net"))}
		c.sink = newSimTraceSink(cfg.Tracer)
	case ModeWall:
		c.net = wallMode{NewWallNet(c.root.Split("net"), cfg.RPC.Timeout+2*time.Second), cfg.Speedup}
		c.cfg.Tracer = nil // only sim mode traces: the tracer is not goroutine-safe
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

// Component returns a component's current incarnation (sim-mode
// assertions).
func (c *Cluster) Component(name string) component {
	comp, _ := c.procs[name].state()
	return comp
}

// state reads p's current incarnation and whether it is killed.
func (p *proc) state() (comp component, down bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.comp, p.down
}

// client builds the resilient client for one directed link, seeding jitter
// per incarnation so restarts stay deterministic in sim mode.
func (c *Cluster) client(p *proc, to string) *Client {
	o := c.cfg.RPC
	o.Jitter = c.root.Split(fmt.Sprintf("rpc/%s->%s/epoch-%d", p.name, to, p.epoch))
	o.Metrics = c.reg
	o.Trace = c.sink
	o.Pid = p.pid
	return NewClient(p.name, to, p.tb, c.net.transport(p, to), o)
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
			Tracer:   c.cfg.Tracer,
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
				Tracer:  c.cfg.Tracer,
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

// startProc builds and starts p's next incarnation and brings it up.
func (c *Cluster) startProc(p *proc) error {
	comp, err := p.build()
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.comp, p.down = comp, false
	err = comp.Start()
	base := p.clock.Now()
	p.mu.Unlock()
	if err != nil {
		return err
	}
	return c.net.up(p, comp, base)
}

// halt takes p's live incarnation down and stops it; a kill also marks
// the proc down until RestartPeer.
func (c *Cluster) halt(p *proc, kill bool) {
	c.net.down(p)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.comp.Stop()
	p.down = kill
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
	if comp, down := p.state(); down || comp == nil {
		return fmt.Errorf("service: peer %q already down", name)
	}
	c.cKills.Inc()
	c.sink.instant(PidSupervisor, TidChaos, "chaos", "kill-"+name,
		tracing.Args{"epoch": p.epoch})
	c.halt(p, true)
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
	if _, down := p.state(); !down {
		return fmt.Errorf("service: peer %q is not down", name)
	}
	p.epoch++
	c.cRestarts.Inc()
	c.sink.instant(PidSupervisor, TidChaos, "chaos", "restart-"+name,
		tracing.Args{"epoch": p.epoch})
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
	c.net.setLink(from, to, f)
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
		if comp, down := p.state(); comp != nil && !down {
			c.halt(p, false)
		}
	}
	c.net.stop(c)
}

// Snapshots collects every component's invariant snapshot in topology
// order. Killed components report their last state.
func (c *Cluster) Snapshots() []InvariantSnapshot {
	var out []InvariantSnapshot
	for _, name := range c.order {
		p := c.procs[name]
		p.mu.Lock()
		if p.comp != nil {
			out = append(out, p.comp.Snapshot())
		}
		p.mu.Unlock()
	}
	return out
}

// modeNet is what the two modes do differently: the network a proc's
// clients ride, how an incarnation is brought up and taken down, and what
// Stop quiets once every component has stopped.
type modeNet interface {
	transport(p *proc, to string) Transport
	// up makes p's freshly started incarnation comp reachable and runs
	// p's clock on from base.
	up(p *proc, comp component, base sim.Time) error
	// down makes p unreachable and stops running its clock. It is called
	// without p.mu, which the caller then takes to stop the component.
	down(p *proc)
	setLink(from, to string, f LinkFault)
	stop(c *Cluster)
}

// simMode runs the trio on the shared clock: SimNet delivers every
// exchange on the event loop, so bringing a proc up or down only changes
// what it delivers to.
type simMode struct{ net *SimNet }

func (m simMode) transport(p *proc, to string) Transport { return m.net.Transport(p.name, to) }

func (m simMode) up(p *proc, comp component, _ sim.Time) error {
	m.net.Register(p.name, comp.Handler())
	return nil
}

func (m simMode) down(p *proc)                         { m.net.SetDown(p.name, true) }
func (m simMode) setLink(from, to string, f LinkFault) { m.net.SetLink(from, to, f) }
func (simMode) stop(*Cluster)                          {}

// wallMode serves each proc over real HTTP on 127.0.0.1 and paces its
// clock against the wall clock at speedup.
type wallMode struct {
	net     *WallNet
	speedup float64
}

func (m wallMode) transport(p *proc, to string) Transport {
	return m.net.Transport(p.name, to, p.runLocked)
}

// up binds the proc's HTTP server, reusing its concrete address across
// restarts so peers' base URLs stay valid, and starts its pacer.
func (m wallMode) up(p *proc, _ component, base sim.Time) error {
	addr := p.addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen %s on %s: %w", p.name, addr, err)
	}
	p.addr = ln.Addr().String()
	m.net.SetURL(p.name, "http://"+p.addr)
	p.srv = &http.Server{
		Handler:           http.HandlerFunc(p.serveLocked),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
	}
	go p.srv.Serve(ln) //nolint:errcheck // Serve always returns on Close
	p.pace = startPacer(p.clock, &p.mu, m.speedup, base)
	return nil
}

// down stops the pacer, which takes p.mu for every advance, and closes the
// server: connections are refused from here on.
func (wallMode) down(p *proc) {
	p.pace.stop()
	p.srv.Close()
}

func (m wallMode) setLink(from, to string, f LinkFault) { m.net.SetLink(from, to, f) }

// stop stops every proc's timers and the network, so no RPC deadline and no
// exchange in flight reaches a component afterwards.
func (m wallMode) stop(c *Cluster) {
	for _, name := range c.order {
		c.procs[name].tb.(*WallTimebase).stop()
	}
	m.net.Stop()
}
