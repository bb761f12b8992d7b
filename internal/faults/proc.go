package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// ProcKind enumerates process- and network-level chaos actions. Where the
// batch-level Kinds above perturb the engine's internal cluster model, these
// perturb the service deployment itself: whole peers die and restart, and
// the RPC links between them refuse, drop, or delay traffic.
type ProcKind int

// Process fault kinds.
const (
	// PeerKill stops a peer process for the window and restarts it (as a
	// new incarnation) when the window lifts, exercising offset replay and
	// degraded-mode entry/exit on its callers.
	PeerKill ProcKind = iota
	// LinkRefuse makes every request on one directed link fail
	// immediately with a connection-refused error for the window.
	LinkRefuse
	// LinkDrop makes each request on one directed link vanish without a
	// response with probability Prob, exercising deadline timeouts.
	LinkDrop
	// LinkDelay adds a fixed latency to every request on one directed
	// link, exercising deadline and backoff interplay.
	LinkDelay
)

// String implements fmt.Stringer.
func (k ProcKind) String() string {
	switch k {
	case PeerKill:
		return "peer-kill"
	case LinkRefuse:
		return "link-refuse"
	case LinkDrop:
		return "link-drop"
	case LinkDelay:
		return "link-delay"
	default:
		return fmt.Sprintf("prockind(%d)", int(k))
	}
}

// ProcFault is one scheduled process/network fault window [At, At+Duration).
type ProcFault struct {
	Kind     ProcKind
	At       sim.Time
	Duration time.Duration
	// Peer targets PeerKill faults.
	Peer string
	// From/To name the directed link for LinkRefuse, LinkDrop, LinkDelay.
	From, To string
	// Prob is the LinkDrop per-request drop probability in (0, 1].
	Prob float64
	// Delay is the LinkDelay added latency (> 0).
	Delay time.Duration
}

// End returns the instant the fault lifts.
func (f ProcFault) End() sim.Time { return f.At + sim.Time(f.Duration) }

// String implements fmt.Stringer.
func (f ProcFault) String() string {
	switch f.Kind {
	case PeerKill:
		return fmt.Sprintf("%v+%v peer-kill %s", f.At, f.Duration, f.Peer)
	case LinkRefuse:
		return fmt.Sprintf("%v+%v link-refuse %s->%s", f.At, f.Duration, f.From, f.To)
	case LinkDrop:
		return fmt.Sprintf("%v+%v link-drop %s->%s p=%.2f", f.At, f.Duration, f.From, f.To, f.Prob)
	case LinkDelay:
		return fmt.Sprintf("%v+%v link-delay %s->%s +%v", f.At, f.Duration, f.From, f.To, f.Delay)
	default:
		return fmt.Sprintf("%v+%v %v", f.At, f.Duration, f.Kind)
	}
}

// ProcPlan is a set of process fault windows. Windows on the same peer, or
// any two link faults on the same directed link, must not overlap: the
// injector applies and clears absolute state (a restart or a link-fault
// reset), so a second overlapping window would be clobbered by the first
// one's recovery.
type ProcPlan []ProcFault

// Validate checks durations, parameters, and same-target overlap.
func (p ProcPlan) Validate() error {
	for i, f := range p {
		if f.At < 0 {
			return fmt.Errorf("faults: proc fault %d starts before time zero", i)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("faults: proc fault %d has non-positive duration", i)
		}
		switch f.Kind {
		case PeerKill:
			if f.Peer == "" {
				return fmt.Errorf("faults: peer-kill fault %d names no peer", i)
			}
		case LinkRefuse, LinkDrop, LinkDelay:
			if f.From == "" || f.To == "" {
				return fmt.Errorf("faults: link fault %d names no endpoints", i)
			}
			if f.From == f.To {
				return fmt.Errorf("faults: link fault %d targets a self-link %s->%s", i, f.From, f.To)
			}
			if f.Kind == LinkDrop && (f.Prob <= 0 || f.Prob > 1) {
				return fmt.Errorf("faults: link-drop fault %d needs prob in (0,1], got %v", i, f.Prob)
			}
			if f.Kind == LinkDelay && f.Delay <= 0 {
				return fmt.Errorf("faults: link-delay fault %d needs positive delay", i)
			}
		default:
			return fmt.Errorf("faults: proc fault %d has unknown kind %d", i, int(f.Kind))
		}
		for j := i + 1; j < len(p); j++ {
			g := p[j]
			if !sameProcTarget(f, g) {
				continue
			}
			if f.At < g.End() && g.At < f.End() {
				return fmt.Errorf("faults: proc faults %d and %d overlap on the same target (%v / %v)", i, j, f, g)
			}
		}
	}
	return nil
}

// sameProcTarget reports whether two proc faults manipulate the same piece
// of deployment state. Any two link faults on the same directed link
// conflict regardless of kind: a link carries one fault descriptor, and
// clearing it clears refusal, drop, and delay together.
func sameProcTarget(a, b ProcFault) bool {
	aLink, bLink := a.Kind != PeerKill, b.Kind != PeerKill
	if aLink != bLink {
		return false
	}
	if aLink {
		return a.From == b.From && a.To == b.To
	}
	return a.Peer == b.Peer
}

// Start returns when the earliest window opens (zero for an empty plan).
func (p ProcPlan) Start() sim.Time {
	var start sim.Time
	for i, f := range p {
		if i == 0 || f.At < start {
			start = f.At
		}
	}
	return start
}

// End returns when the last window lifts (zero for an empty plan).
func (p ProcPlan) End() sim.Time {
	var end sim.Time
	for _, f := range p {
		if f.End() > end {
			end = f.End()
		}
	}
	return end
}

// sorted returns the plan ordered by start time (stable for equal starts).
func (p ProcPlan) sorted() ProcPlan {
	out := append(ProcPlan(nil), p...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// ProcTarget is the deployment surface a ProcInjector drives. Its methods
// are exactly the chaos controls service.Cluster exposes, so a cluster is a
// ProcTarget without adapters; any fake satisfying it works for tests.
type ProcTarget interface {
	KillPeer(name string) error
	RestartPeer(name string) error
	SetLinkFault(from, to string, refuse bool, dropProb float64, delay time.Duration) error
	ClearLinkFault(from, to string) error
}

// ProcSchedule abstracts when chaos actions run, keeping this package free
// of wall-clock reads: At schedules fn at absolute plan instant t, and Now
// reports the current plan instant for the timeline. In sim mode wrap the
// shared kernel with ClockSchedule; a wall-mode supervisor maps plan time
// onto real timers at its own speedup.
type ProcSchedule interface {
	At(t sim.Time, fn func())
	Now() sim.Time
}

// ClockSchedule adapts a sim.Clock to ProcSchedule.
type ClockSchedule struct{ Clock *sim.Clock }

// At implements ProcSchedule.
func (s ClockSchedule) At(t sim.Time, fn func()) { s.Clock.At(t, fn) }

// Now implements ProcSchedule.
func (s ClockSchedule) Now() sim.Time { return s.Clock.Now() }

// TidProcChaos is the fault-injector trace lane carrying one span per
// applied process fault window.
const TidProcChaos = 2

// ProcInjector executes a ProcPlan against a deployment and records the
// applied timeline, mirroring Injector's lifecycle: AttachProc schedules
// every window up front, Observe wires optional sinks, and the timeline
// String is byte-stable across equal-seed runs.
type ProcInjector struct {
	target   ProcTarget
	sched    ProcSchedule
	plan     ProcPlan
	timeline []Entry
	active   int
	injected int

	reg         *metrics.Registry
	tr          *tracing.Tracer
	activeGauge *metrics.Gauge
	injectFails *metrics.Counter
}

// AttachProc validates the plan and schedules every fault window on the
// given schedule. Windows in the past relative to the schedule are rejected
// by the kernel's causality check in sim mode.
func AttachProc(target ProcTarget, sched ProcSchedule, plan ProcPlan) (*ProcInjector, error) {
	if target == nil {
		return nil, errors.New("faults: nil proc target")
	}
	if sched == nil {
		return nil, errors.New("faults: nil proc schedule")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &ProcInjector{target: target, sched: sched, plan: plan.sorted()}
	for _, f := range inj.plan {
		f := f
		inj.sched.At(f.At, func() { inj.start(f) })
		inj.sched.At(f.End(), func() { inj.end(f) })
	}
	return inj, nil
}

// Observe attaches metric and trace sinks: a per-kind injected counter, an
// active-window gauge, and one trace span per applied window. Nil arguments
// disable the corresponding sink; in wall mode pass a nil tracer unless the
// caller serializes access itself.
func (inj *ProcInjector) Observe(reg *metrics.Registry, tr *tracing.Tracer) {
	inj.reg = reg
	inj.tr = tr
	if reg != nil {
		inj.activeGauge = reg.Gauge("nostop_proc_faults_active", "Currently-open process fault windows")
		inj.injectFails = reg.Counter("nostop_proc_fault_inject_failures_total", "Process fault applications rejected by the deployment")
	}
	tr.NameProcess(engine.PidFaults, "fault-injector")
	tr.NameThread(engine.PidFaults, TidProcChaos, "proc-chaos")
}

// countInjected bumps the per-kind injected counter.
func (inj *ProcInjector) countInjected(k ProcKind) {
	if inj.reg == nil {
		return
	}
	inj.reg.Counter("nostop_proc_faults_injected_total",
		"Process fault windows applied, by kind", metrics.L("kind", k.String())).Inc()
}

// apply maps a window edge onto the target: onset (up=false is the fault
// taking hold) or recovery (up=true).
func (inj *ProcInjector) apply(f ProcFault, recover bool) error {
	switch f.Kind {
	case PeerKill:
		if recover {
			return inj.target.RestartPeer(f.Peer)
		}
		return inj.target.KillPeer(f.Peer)
	case LinkRefuse, LinkDrop, LinkDelay:
		if recover {
			return inj.target.ClearLinkFault(f.From, f.To)
		}
		switch f.Kind {
		case LinkRefuse:
			return inj.target.SetLinkFault(f.From, f.To, true, 0, 0)
		case LinkDrop:
			return inj.target.SetLinkFault(f.From, f.To, false, f.Prob, 0)
		default:
			return inj.target.SetLinkFault(f.From, f.To, false, 0, f.Delay)
		}
	}
	return fmt.Errorf("faults: unknown proc kind %d", int(f.Kind))
}

// start applies one fault window's onset.
func (inj *ProcInjector) start(f ProcFault) {
	if err := inj.apply(f, false); err != nil {
		inj.note("inject %v FAILED: %v", f, err)
		inj.injectFails.Inc()
		inj.tr.Instant(engine.PidFaults, TidProcChaos, "faults", "inject-failed",
			tracing.Args{"fault": f.String(), "error": err.Error()})
		return
	}
	inj.active++
	inj.injected++
	inj.countInjected(f.Kind)
	inj.activeGauge.Set(float64(inj.active))
	inj.note("inject %v", f)
}

// end reverts one fault window.
func (inj *ProcInjector) end(f ProcFault) {
	if err := inj.apply(f, true); err != nil {
		inj.note("recover %v FAILED: %v", f, err)
		inj.tr.Instant(engine.PidFaults, TidProcChaos, "faults", "recover-failed",
			tracing.Args{"fault": f.String(), "error": err.Error()})
		return
	}
	if inj.active > 0 {
		inj.active--
	}
	inj.activeGauge.Set(float64(inj.active))
	inj.note("recover %v", f)
	//nostop:allow obscontract -- span name drawn from the closed fault-kind enum; bounded cardinality
	inj.tr.Span(engine.PidFaults, TidProcChaos, "faults", f.Kind.String(),
		f.At, f.Duration, tracing.Args{"fault": f.String()})
}

// note appends a timeline entry.
func (inj *ProcInjector) note(format string, args ...any) {
	inj.timeline = append(inj.timeline, Entry{At: inj.sched.Now(), Msg: fmt.Sprintf(format, args...)})
}

// Plan returns the injector's (sorted) plan.
func (inj *ProcInjector) Plan() ProcPlan { return inj.plan }

// Injected returns how many fault windows have been applied so far.
func (inj *ProcInjector) Injected() int { return inj.injected }

// Active returns the number of currently-open fault windows.
func (inj *ProcInjector) Active() int { return inj.active }

// Timeline returns the applied fault actions in order.
func (inj *ProcInjector) Timeline() []Entry { return inj.timeline }

// String renders the timeline, one action per line.
func (inj *ProcInjector) String() string {
	var b []byte
	for _, e := range inj.timeline {
		b = fmt.Appendf(b, "%v %s\n", e.At, e.Msg)
	}
	return string(b)
}

// ProcChaosOptions scope the seeded process-chaos generator.
type ProcChaosOptions struct {
	// Horizon bounds fault starts; windows are clipped to end by it.
	// Required (must be positive).
	Horizon time.Duration
	// Peers are the kill candidates. Required for PeerKill windows to be
	// drawn; with one peer or fewer no link faults are drawn either.
	Peers []string
}

// The process-chaos plan's shape, which no run varies: the first quarter
// of the horizon is chaos-free, windows open after exponential gaps of
// mean Horizon/8, and each lasts 15–45s — long enough to trip breakers
// and degraded mode, short enough that recovery is observable before the
// horizon.
const (
	procMinDuration = 15 * time.Second
	procMaxDuration = 45 * time.Second
	procMaxDrop     = 0.9                    // worst link-drop probability drawn
	procMaxDelay    = 500 * time.Millisecond // worst link delay drawn
)

// ProcChaos generates a sequential random process fault plan: windows never
// overlap, so every recovery is observable before the next fault lands, and
// the plan always validates. All randomness comes from the given stream —
// equal seeds yield byte-identical plans.
func ProcChaos(seed *rng.Stream, o ProcChaosOptions) ProcPlan {
	if o.Horizon <= 0 || len(o.Peers) == 0 {
		return nil
	}
	r := seed.Split("proc-chaos")
	var plan ProcPlan
	t := sim.Time(o.Horizon / 4)
	for {
		t += sim.Time(r.Exp((o.Horizon / 8).Seconds()) * float64(time.Second))
		if t >= sim.Time(o.Horizon) {
			break
		}
		dur := time.Duration(r.Uniform(procMinDuration.Seconds(), procMaxDuration.Seconds()) * float64(time.Second))
		if end := sim.Time(o.Horizon); t+sim.Time(dur) > end {
			dur = time.Duration(end - t)
			if dur < procMinDuration/2 {
				break
			}
		}
		f := ProcFault{At: t, Duration: dur}
		kinds := 1
		if len(o.Peers) > 1 {
			kinds = 4
		}
		f.Kind = ProcKind(r.Intn(kinds))
		switch f.Kind {
		case PeerKill:
			f.Peer = o.Peers[r.Intn(len(o.Peers))]
		case LinkRefuse, LinkDrop, LinkDelay:
			i := r.Intn(len(o.Peers))
			j := r.Intn(len(o.Peers) - 1)
			if j >= i {
				j++
			}
			f.From, f.To = o.Peers[i], o.Peers[j]
			switch f.Kind {
			case LinkDrop:
				f.Prob = r.Uniform(0.3, procMaxDrop)
			case LinkDelay:
				f.Delay = time.Duration(r.Uniform(0.05, procMaxDelay.Seconds()) * float64(time.Second))
			}
		}
		plan = append(plan, f)
		t = f.End()
	}
	return plan
}
