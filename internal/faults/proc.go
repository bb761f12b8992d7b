package faults

import (
	"fmt"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
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

// ProcTarget is the deployment surface an Injector drives for a ProcPlan
// (see AttachProc). Its methods are exactly the chaos controls
// service.Cluster exposes, so a cluster is a ProcTarget without adapters;
// any fake satisfying it works for tests.
type ProcTarget interface {
	KillPeer(name string) error
	RestartPeer(name string) error
	SetLinkFault(from, to string, refuse bool, dropProb float64, delay time.Duration) error
	ClearLinkFault(from, to string) error
}

// apply opens the window on target (the fault taking hold), or closes it
// when recover is set.
func (f ProcFault) apply(target ProcTarget, recover bool) error {
	switch f.Kind {
	case PeerKill:
		if recover {
			return target.RestartPeer(f.Peer)
		}
		return target.KillPeer(f.Peer)
	case LinkRefuse, LinkDrop, LinkDelay:
		if recover {
			return target.ClearLinkFault(f.From, f.To)
		}
		switch f.Kind {
		case LinkRefuse:
			return target.SetLinkFault(f.From, f.To, true, 0, 0)
		case LinkDrop:
			return target.SetLinkFault(f.From, f.To, false, f.Prob, 0)
		default:
			return target.SetLinkFault(f.From, f.To, false, 0, f.Delay)
		}
	}
	return fmt.Errorf("faults: unknown proc kind %d", int(f.Kind))
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
	kinds := 1
	if len(o.Peers) > 1 {
		kinds = 4
	}
	return sequential(r, o.Horizon, o.Horizon/8, procMinDuration, procMaxDuration, func(at sim.Time, dur time.Duration) ProcFault {
		f := ProcFault{Kind: ProcKind(r.Intn(kinds)), At: at, Duration: dur}
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
		return f
	})
}
