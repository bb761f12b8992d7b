// Package faults is the deterministic fault-injection subsystem: a plan of
// timed fault windows executed on the simulation clock against a running
// engine. It models the failure classes the paper's real cluster exhibits
// (§6) but the optimization formulation abstracts away — node crashes,
// straggler executors, transient task failures, broker partition outages,
// and ingest rate spikes — so that recovery semantics (task retry, offset
// replay, failure-aware measurement) can be exercised reproducibly.
//
// Plans are either scripted (explicit Fault windows) or generated by the
// seeded chaos mode (see Chaos). All randomness flows through internal/rng,
// so two runs with the same seed produce byte-identical fault timelines and
// batch histories.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/sim"
	"nostop/internal/tracing"
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

// sorted returns the plan ordered by start time (stable for equal starts).
func (p Plan) sorted() Plan {
	out := append(Plan(nil), p...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// Entry is one timeline record: a fault action the injector applied.
type Entry struct {
	At  sim.Time
	Msg string
}

// Injector executes a plan against an engine on its clock and records the
// applied timeline. It brackets fault windows with the engine's FaultActive
// flag so every overlapping batch is excluded from SPSA measurements.
type Injector struct {
	eng      *engine.Engine
	clock    *sim.Clock
	plan     Plan
	timeline []Entry
	active   int
	injected int

	reg         *metrics.Registry
	tr          *tracing.Tracer
	activeGauge *metrics.Gauge
	injectFails *metrics.Counter
}

// Attach validates the plan and schedules every fault window on the
// engine's clock. The engine need not be started yet; windows in the past
// relative to the clock are rejected by the kernel's causality check.
func Attach(eng *engine.Engine, plan Plan) (*Injector, error) {
	if eng == nil {
		return nil, errors.New("faults: nil engine")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	inj := &Injector{eng: eng, clock: eng.Clock(), plan: plan.sorted()}
	for _, f := range inj.plan {
		f := f
		inj.clock.At(f.At, func() { inj.start(f) })
		inj.clock.At(f.End(), func() { inj.end(f) })
	}
	return inj, nil
}

// TidFaultWindows is the fault-injector trace lane carrying one span per
// applied fault window.
const TidFaultWindows = 1

// Observe attaches metric and trace sinks to the injector: a per-kind
// injected-fault counter, an active-window gauge, and one trace span per
// fault window (emitted when the window lifts, spanning [At, End)).
// Call before the clock reaches the first fault window; nil arguments
// disable the corresponding sink. Like all instrumentation in this
// codebase it is passive and cannot perturb the fault timeline.
func (inj *Injector) Observe(reg *metrics.Registry, tr *tracing.Tracer) {
	inj.reg = reg
	inj.tr = tr
	if reg != nil {
		inj.activeGauge = reg.Gauge("nostop_faults_active", "Currently-open fault windows")
		inj.injectFails = reg.Counter("nostop_fault_inject_failures_total", "Fault applications rejected by the engine")
	}
	tr.NameProcess(engine.PidFaults, "fault-injector")
	tr.NameThread(engine.PidFaults, TidFaultWindows, "fault-windows")
}

// countInjected bumps the per-kind injected counter.
func (inj *Injector) countInjected(k Kind) {
	if inj.reg == nil {
		return
	}
	inj.reg.Counter("nostop_faults_injected_total",
		"Fault windows applied, by kind", metrics.L("kind", k.String())).Inc()
}

// start applies one fault window's onset.
func (inj *Injector) start(f Fault) {
	var err error
	switch f.Kind {
	case NodeCrash:
		err = inj.eng.FailNode(f.NodeID)
	case Straggler:
		err = inj.eng.SetNodeSlowdown(f.NodeID, f.Factor)
	case TaskFailures:
		inj.eng.SetTaskFailureRate(f.Prob)
	case PartitionOutage:
		err = inj.eng.FailPartition(f.Partition)
	case IngestSpike:
		inj.eng.SetIngestBoost(f.Factor)
	}
	if err != nil {
		inj.note("inject %v FAILED: %v", f, err)
		inj.injectFails.Inc()
		inj.tr.Instant(engine.PidFaults, TidFaultWindows, "faults", "inject-failed",
			tracing.Args{"fault": f.String(), "error": err.Error()})
		return
	}
	inj.active++
	inj.injected++
	inj.countInjected(f.Kind)
	inj.activeGauge.Set(float64(inj.active))
	inj.eng.SetFaultActive(true)
	inj.note("inject %v", f)
}

// end reverts one fault window.
func (inj *Injector) end(f Fault) {
	var err error
	switch f.Kind {
	case NodeCrash:
		err = inj.eng.RestoreNode(f.NodeID)
	case Straggler:
		err = inj.eng.SetNodeSlowdown(f.NodeID, 1)
	case TaskFailures:
		inj.eng.SetTaskFailureRate(0)
	case PartitionOutage:
		err = inj.eng.RestorePartition(f.Partition)
	case IngestSpike:
		inj.eng.SetIngestBoost(1)
	}
	if err != nil {
		inj.note("recover %v FAILED: %v", f, err)
		inj.tr.Instant(engine.PidFaults, TidFaultWindows, "faults", "recover-failed",
			tracing.Args{"fault": f.String(), "error": err.Error()})
		return
	}
	if inj.active > 0 {
		inj.active--
	}
	inj.activeGauge.Set(float64(inj.active))
	if inj.active == 0 {
		inj.eng.SetFaultActive(false)
	}
	inj.note("recover %v", f)
	//nostop:allow obscontract -- span name drawn from the closed fault-kind enum; bounded cardinality
	inj.tr.Span(engine.PidFaults, TidFaultWindows, "faults", f.Kind.String(),
		f.At, f.Duration, tracing.Args{"fault": f.String()})
}

// note appends a timeline entry.
func (inj *Injector) note(format string, args ...any) {
	inj.timeline = append(inj.timeline, Entry{At: inj.clock.Now(), Msg: fmt.Sprintf(format, args...)})
}

// Injected returns how many fault windows have been applied so far.
func (inj *Injector) Injected() int { return inj.injected }

// String renders the timeline, one action per line — the artifact the
// determinism test compares byte-for-byte across seeded runs.
func (inj *Injector) String() string {
	var b strings.Builder
	for _, e := range inj.timeline {
		fmt.Fprintf(&b, "%v %s\n", e.At, e.Msg)
	}
	return b.String()
}
