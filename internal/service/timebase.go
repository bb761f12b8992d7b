package service

import (
	"sync"
	"time"

	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// Timebase abstracts "schedule a callback after a delay" for the RPC layer,
// so deadlines and backoff timers run on the shared sim.Clock in sim mode
// (deterministic, replayable) and on real timers in wall mode. Component
// logic never uses a Timebase directly — tickers and batch machinery stay on
// sim.Clock in both modes; only RPC plumbing needs to race real network I/O
// against real time.
//
// Contract: callbacks fire inside the owning component's execution context
// (the sim event loop, or under the component's mutex), and Cancel must be
// called from that same context with a handle After returned. After Cancel
// returns the callback will not run. Canceling a fired, canceled or zero
// Timer does nothing.
type Timebase interface {
	Now() sim.Time
	After(d time.Duration, fn func()) Timer
	Cancel(t Timer)
}

// Timer is the handle to one callback a Timebase scheduled: the kernel's
// event in sim mode, which schedules and cancels without allocating, and
// the real timer in wall mode.
type Timer struct {
	ev   sim.Event
	wall *wallTimer
}

// wallTimer is a wall-mode callback's timer and its canceled flag. The flag
// is read and written only under the component mutex, which closes the
// race where the timer has fired and is already blocked on the mutex when
// Cancel runs.
type wallTimer struct {
	t        *time.Timer
	canceled bool
}

// SimTimebase schedules on a sim.Clock.
type SimTimebase struct{ Clock *sim.Clock }

// Now implements Timebase.
func (s SimTimebase) Now() sim.Time { return s.Clock.Now() }

// After implements Timebase.
func (s SimTimebase) After(d time.Duration, fn func()) Timer {
	return Timer{ev: s.Clock.After(d, fn)}
}

// Cancel implements Timebase.
func (s SimTimebase) Cancel(t Timer) { s.Clock.Cancel(t.ev) }

// WallTimebase schedules on real timers, re-entering the owning component's
// mutex before invoking the callback so component state stays effectively
// single-threaded (the same discipline the component's HTTP handlers and
// its pacer's clock advances keep).
type WallTimebase struct {
	start time.Time
	mu    *sync.Mutex
}

// NewWallTimebase returns a wall timebase whose Now is elapsed real time
// since construction and whose callbacks run under mu.
func NewWallTimebase(mu *sync.Mutex) *WallTimebase {
	return &WallTimebase{start: time.Now(), mu: mu}
}

// Now implements Timebase.
func (w *WallTimebase) Now() sim.Time { return sim.Time(time.Since(w.start)) }

// After implements Timebase.
func (w *WallTimebase) After(d time.Duration, fn func()) Timer {
	wt := &wallTimer{}
	wt.t = time.AfterFunc(d, func() {
		w.mu.Lock()
		defer w.mu.Unlock()
		if wt.canceled {
			return
		}
		fn()
	})
	return Timer{wall: wt}
}

// Cancel implements Timebase; the caller holds the component mutex.
func (w *WallTimebase) Cancel(t Timer) {
	if t.wall == nil {
		return
	}
	t.wall.canceled = true
	t.wall.t.Stop()
}

// pacer advances a component's sim.Clock against the wall clock at a fixed
// speedup, taking the component mutex for every advancement so clock events
// (batch cuts, fetch ticks) interleave safely with HTTP handlers and RPC
// callbacks. This is the wall-clock gateway the wallclock analyzer allowlist
// exists for: real time enters here and nowhere else in the pipeline.
type pacer struct {
	quit chan struct{}
	done chan struct{}
}

// startPacer begins pacing clock at speedup virtual seconds per real second.
// base is the virtual instant corresponding to "now" (restarts resume pacing
// from the incarnation's start, not from zero).
func startPacer(clock *sim.Clock, mu *sync.Mutex, speedup float64, base sim.Time) *pacer {
	p := &pacer{quit: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(p.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-p.quit:
				return
			case <-tick.C:
				target := base + sim.Time(float64(time.Since(start))*speedup)
				mu.Lock()
				clock.RunUntil(target)
				mu.Unlock()
			}
		}
	}()
	return p
}

// stop halts pacing and waits for the pacing goroutine to exit, so the
// caller may safely discard or restart the component afterwards.
func (p *pacer) stop() {
	close(p.quit)
	<-p.done
}

// traceSink adapts the single-threaded tracing.Tracer to both modes. In sim
// mode it is an unlocked pass-through to the shared tracer. In wall mode it
// owns a private clock advanced to speedup-scaled elapsed time under a
// mutex, so concurrent components can emit service-layer events (RPC
// outcomes, breaker and degradation transitions, chaos actions) onto one
// timeline without racing. A nil sink discards events.
type traceSink struct {
	tr      *tracing.Tracer
	mu      *sync.Mutex // non-nil in wall mode
	clock   *sim.Clock  // sink-owned in wall mode; guarded by mu
	start   time.Time
	speedup float64
}

// newSimTraceSink wraps a tracer already bound to the shared sim clock.
// Returns nil (a discarding sink) for a nil tracer.
func newSimTraceSink(tr *tracing.Tracer) *traceSink {
	if tr == nil {
		return nil
	}
	return &traceSink{tr: tr}
}

// newWallTraceSink builds a tracer on a sink-owned clock paced lazily on
// each emission.
func newWallTraceSink(maxEvents int, speedup float64) *traceSink {
	clock := sim.NewClock()
	return &traceSink{
		tr:      tracing.New(clock, maxEvents),
		mu:      &sync.Mutex{},
		clock:   clock,
		start:   time.Now(),
		speedup: speedup,
	}
}

// tracer returns the underlying tracer (for WriteJSON at shutdown).
func (s *traceSink) tracer() *tracing.Tracer {
	if s == nil {
		return nil
	}
	return s.tr
}

func (s *traceSink) enter() {
	if s.mu != nil {
		s.mu.Lock()
		s.clock.RunUntil(sim.Time(float64(time.Since(s.start)) * s.speedup))
	}
}

func (s *traceSink) leave() {
	if s.mu != nil {
		s.mu.Unlock()
	}
}

// instant emits an instant event; safe on a nil sink.
func (s *traceSink) instant(pid, tid int, cat, name string, args tracing.Args) {
	if s == nil {
		return
	}
	s.enter()
	//nostop:allow obscontract -- forwarder: service call sites pass literal names (kill-/restart-<proc>), bounded by cluster size
	s.tr.Instant(pid, tid, cat, name, args)
	s.leave()
}

// counter emits a counter sample; safe on a nil sink.
func (s *traceSink) counter(pid int, name string, values tracing.Args) {
	if s == nil {
		return
	}
	s.enter()
	//nostop:allow obscontract -- forwarder: service call sites pass literal counter names
	s.tr.Counter(pid, name, values)
	s.leave()
}

// nameLanes labels the service-layer process/thread lanes on the trace.
func (s *traceSink) nameLanes() {
	if s == nil {
		return
	}
	s.enter()
	s.tr.NameProcess(PidServiceBroker, "svc:broker")
	s.tr.NameProcess(PidServiceEngine, "svc:engine")
	s.tr.NameProcess(PidServiceController, "svc:controller")
	s.tr.NameProcess(PidSupervisor, "svc:supervisor")
	s.tr.NameThread(PidSupervisor, TidChaos, "chaos")
	s.leave()
}
