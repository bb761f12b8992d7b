// Package faults is the deterministic fault-injection subsystem: a plan of
// timed fault windows executed on a schedule against a running system. It
// models the failure classes the paper's real cluster exhibits (§6) but
// the optimization formulation abstracts away, so that recovery semantics
// (task retry, offset replay, failure-aware measurement, degraded mode)
// can be exercised reproducibly. There are two plan types:
//
//   - a Plan perturbs an engine's cluster model — node crashes, straggler
//     executors, transient task failures, broker partition outages and
//     ingest rate spikes — on the engine's clock (Attach);
//   - a ProcPlan perturbs a service deployment through ProcTarget — peers
//     killed and restarted, links that refuse, drop or delay requests —
//     on a ProcSchedule (AttachProc).
//
// One Injector runs either: it schedules both edges of every window,
// records the applied timeline, and reports to optional metric and trace
// sinks (Observe).
//
// Plans are either scripted (explicit windows) or generated by the seeded
// chaos modes (Chaos, ProcChaos), which share one window-drawing loop. All
// randomness flows through internal/rng, so two runs with the same seed
// produce byte-identical fault timelines and batch histories.
package faults

import (
	"fmt"
	"strings"
	"time"

	"nostop/internal/engine"
	"nostop/internal/sim"
)

// Kind enumerates the injectable fault classes.
type Kind int

// Fault kinds.
const (
	// NodeCrash kills a cluster node for the window; its executors die
	// and the engine reallocates what remaining capacity allows.
	NodeCrash Kind = iota
	// Straggler slows every executor on a node by Factor for the window,
	// exercising speculative re-execution.
	Straggler
	// TaskFailures makes each batch attempt fail with probability Prob
	// for the window, exercising retry with capped exponential backoff.
	TaskFailures
	// PartitionOutage takes a broker partition's leader offline for the
	// window, exercising at-least-once replay from committed offsets.
	PartitionOutage
	// IngestSpike multiplies trace arrivals by Factor for the window,
	// modelling §5.5's surge scenarios as an injectable fault.
	IngestSpike
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case Straggler:
		return "straggler"
	case TaskFailures:
		return "task-failures"
	case PartitionOutage:
		return "partition-outage"
	case IngestSpike:
		return "ingest-spike"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Kinds lists every injectable fault class, in enum order. It is the
// closed vocabulary ParseKind accepts and the scenario spec documents.
func Kinds() []Kind {
	return []Kind{NodeCrash, Straggler, TaskFailures, PartitionOutage, IngestSpike}
}

// ParseKind resolves a fault-kind name ("node-crash", "straggler",
// "task-failures", "partition-outage", "ingest-spike") to its Kind — the
// inverse of Kind.String, used by human-authored scenario specs.
func ParseKind(name string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("faults: unknown fault kind %q (want one of %s)", name, kindNames())
}

// kindNames renders the accepted kind names for error messages.
func kindNames() string {
	var names []string
	for _, k := range Kinds() {
		names = append(names, k.String())
	}
	return strings.Join(names, ", ")
}

// Fault is one scheduled fault window [At, At+Duration).
type Fault struct {
	Kind     Kind
	At       sim.Time
	Duration time.Duration
	// NodeID targets NodeCrash and Straggler faults.
	NodeID int
	// Partition targets PartitionOutage faults.
	Partition int
	// Factor is the Straggler slowdown (> 1) or IngestSpike multiplier
	// (> 1).
	Factor float64
	// Prob is the TaskFailures per-attempt failure probability in (0, 1].
	Prob float64
}

// End returns the instant the fault lifts.
func (f Fault) End() sim.Time { return f.At + sim.Time(f.Duration) }

// String implements fmt.Stringer.
func (f Fault) String() string {
	switch f.Kind {
	case NodeCrash:
		return fmt.Sprintf("%v+%v node-crash node=%d", f.At, f.Duration, f.NodeID)
	case Straggler:
		return fmt.Sprintf("%v+%v straggler node=%d x%.1f", f.At, f.Duration, f.NodeID, f.Factor)
	case TaskFailures:
		return fmt.Sprintf("%v+%v task-failures p=%.2f", f.At, f.Duration, f.Prob)
	case PartitionOutage:
		return fmt.Sprintf("%v+%v partition-outage part=%d", f.At, f.Duration, f.Partition)
	case IngestSpike:
		return fmt.Sprintf("%v+%v ingest-spike x%.1f", f.At, f.Duration, f.Factor)
	default:
		return fmt.Sprintf("%v+%v %v", f.At, f.Duration, f.Kind)
	}
}

// Plan is a set of fault windows. Same-kind windows on the same target must
// not overlap (the injector applies and reverts absolute state, not deltas).
type Plan []Fault

// Validate checks durations, parameters, and same-target overlap.
func (p Plan) Validate() error {
	for i, f := range p {
		if f.At < 0 {
			return fmt.Errorf("faults: fault %d starts before time zero", i)
		}
		if f.Duration <= 0 {
			return fmt.Errorf("faults: fault %d has non-positive duration", i)
		}
		switch f.Kind {
		case NodeCrash:
		case Straggler:
			if f.Factor <= 1 {
				return fmt.Errorf("faults: straggler fault %d needs factor > 1, got %v", i, f.Factor)
			}
		case TaskFailures:
			if f.Prob <= 0 || f.Prob > 1 {
				return fmt.Errorf("faults: task-failure fault %d needs prob in (0,1], got %v", i, f.Prob)
			}
		case PartitionOutage:
			if f.Partition < 0 {
				return fmt.Errorf("faults: partition-outage fault %d has negative partition", i)
			}
		case IngestSpike:
			if f.Factor <= 1 {
				return fmt.Errorf("faults: ingest-spike fault %d needs factor > 1, got %v", i, f.Factor)
			}
		default:
			return fmt.Errorf("faults: fault %d has unknown kind %d", i, int(f.Kind))
		}
		for j := i + 1; j < len(p); j++ {
			g := p[j]
			if !sameTarget(f, g) {
				continue
			}
			if f.At < g.End() && g.At < f.End() {
				return fmt.Errorf("faults: faults %d and %d overlap on the same target (%v / %v)", i, j, f, g)
			}
		}
	}
	return nil
}

// sameTarget reports whether two faults manipulate the same piece of engine
// state and therefore must not overlap.
func sameTarget(a, b Fault) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case NodeCrash, Straggler:
		return a.NodeID == b.NodeID
	case PartitionOutage:
		return a.Partition == b.Partition
	default: // TaskFailures, IngestSpike are global knobs
		return true
	}
}

// apply opens the window on eng, or closes it when recover is set.
func (f Fault) apply(eng *engine.Engine, recover bool) error {
	factor, prob := f.Factor, f.Prob
	if recover {
		factor, prob = 1, 0
	}
	switch f.Kind {
	case NodeCrash:
		if recover {
			return eng.RestoreNode(f.NodeID)
		}
		return eng.FailNode(f.NodeID)
	case Straggler:
		return eng.SetNodeSlowdown(f.NodeID, factor)
	case TaskFailures:
		eng.SetTaskFailureRate(prob)
	case PartitionOutage:
		if recover {
			return eng.RestorePartition(f.Partition)
		}
		return eng.FailPartition(f.Partition)
	case IngestSpike:
		eng.SetIngestBoost(factor)
	}
	return nil
}

// Start returns when the earliest fault window opens (zero for an empty
// plan).
func (p Plan) Start() sim.Time {
	var start sim.Time
	for i, f := range p {
		if i == 0 || f.At < start {
			start = f.At
		}
	}
	return start
}

// End returns when the last fault window lifts (zero for an empty plan).
func (p Plan) End() sim.Time {
	var end sim.Time
	for _, f := range p {
		if f.End() > end {
			end = f.End()
		}
	}
	return end
}
