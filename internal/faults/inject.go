package faults

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/sim"
	"nostop/internal/tracing"
)

// Entry is one timeline record: a fault action the injector applied.
type Entry struct {
	At  sim.Time
	Msg string
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

// Fault-injector trace lanes: one span per applied window, on pid
// engine.PidFaults.
const (
	// TidFaultWindows carries an engine plan's windows.
	TidFaultWindows = 1
	// TidProcChaos carries a process plan's windows.
	TidProcChaos = 2
)

// Injector executes a fault plan on a schedule and records the applied
// timeline: an engine Plan on the engine's clock (Attach) or a process
// ProcPlan against a deployment (AttachProc). Both schedule every window
// up front, Observe wires optional sinks, and the timeline String is
// byte-stable across equal-seed runs. An engine plan also brackets its
// windows with the engine's FaultActive flag, so every overlapping batch
// is excluded from SPSA measurements.
type Injector struct {
	eng      *engine.Engine // nil for a process plan
	sched    ProcSchedule
	tid      int
	timeline []Entry
	active   int
	injected int

	reg         *metrics.Registry
	tr          *tracing.Tracer
	activeGauge *metrics.Gauge
	injectFails *metrics.Counter
}

// ProcInjector is the name Injector had for process plans before one type
// ran both; the benchmark harness still uses it.
type ProcInjector = Injector

// window is one fault window of either plan type: its span, its kind's and
// its own text, and edge, which opens it on the target (recover false) or
// closes it.
type window struct {
	at         sim.Time
	dur        time.Duration
	kind, text string
	edge       func(recover bool) error
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
	ws := make([]window, len(plan))
	for i, f := range plan {
		ws[i] = window{f.At, f.Duration, f.Kind.String(), f.String(),
			func(recover bool) error { return f.apply(eng, recover) }}
	}
	inj := &Injector{eng: eng, sched: ClockSchedule{Clock: eng.Clock()}, tid: TidFaultWindows}
	inj.schedule(ws)
	return inj, nil
}

// AttachProc validates the plan and schedules every fault window on the
// given schedule. Windows in the past relative to the schedule are rejected
// by the kernel's causality check in sim mode.
func AttachProc(target ProcTarget, sched ProcSchedule, plan ProcPlan) (*Injector, error) {
	if target == nil {
		return nil, errors.New("faults: nil proc target")
	}
	if sched == nil {
		return nil, errors.New("faults: nil proc schedule")
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	ws := make([]window, len(plan))
	for i, f := range plan {
		ws[i] = window{f.At, f.Duration, f.Kind.String(), f.String(),
			func(recover bool) error { return f.apply(target, recover) }}
	}
	inj := &Injector{sched: sched, tid: TidProcChaos}
	inj.schedule(ws)
	return inj, nil
}

// schedule orders the windows by start time (stable for equal starts) and
// schedules both edges of each.
func (inj *Injector) schedule(ws []window) {
	sort.SliceStable(ws, func(i, j int) bool { return ws[i].at < ws[j].at })
	for _, w := range ws {
		inj.sched.At(w.at, func() { inj.start(w) })
		inj.sched.At(w.at+sim.Time(w.dur), func() { inj.end(w) })
	}
}

// Observe attaches metric and trace sinks to the injector: a per-kind
// injected-fault counter, an active-window gauge, and one trace span per
// fault window (emitted when the window lifts, spanning [At, End)). An
// engine plan reports as nostop_faults_* on the fault-windows lane, a
// process plan as nostop_proc_* on the proc-chaos lane. Call before the
// schedule reaches the first fault window; nil arguments disable the
// corresponding sink, and in wall mode pass a nil tracer unless the caller
// serializes access itself. Like all instrumentation in this codebase it
// is passive and cannot perturb the fault timeline.
func (inj *Injector) Observe(reg *metrics.Registry, tr *tracing.Tracer) {
	inj.reg = reg
	inj.tr = tr
	tr.NameProcess(engine.PidFaults, "fault-injector")
	if inj.eng != nil {
		if reg != nil {
			inj.activeGauge = reg.Gauge("nostop_faults_active", "Currently-open fault windows")
			inj.injectFails = reg.Counter("nostop_fault_inject_failures_total", "Fault applications rejected by the engine")
		}
		tr.NameThread(engine.PidFaults, TidFaultWindows, "fault-windows")
		return
	}
	if reg != nil {
		inj.activeGauge = reg.Gauge("nostop_proc_faults_active", "Currently-open process fault windows")
		inj.injectFails = reg.Counter("nostop_proc_fault_inject_failures_total", "Process fault applications rejected by the deployment")
	}
	tr.NameThread(engine.PidFaults, TidProcChaos, "proc-chaos")
}

// countInjected bumps the per-kind injected counter.
func (inj *Injector) countInjected(kind string) {
	switch {
	case inj.reg == nil:
	case inj.eng != nil:
		inj.reg.Counter("nostop_faults_injected_total",
			"Fault windows applied, by kind", metrics.L("kind", kind)).Inc()
	default:
		inj.reg.Counter("nostop_proc_faults_injected_total",
			"Process fault windows applied, by kind", metrics.L("kind", kind)).Inc()
	}
}

// start applies one fault window's onset.
func (inj *Injector) start(w window) {
	if err := w.edge(false); err != nil {
		inj.note("inject %s FAILED: %v", w.text, err)
		inj.injectFails.Inc()
		inj.tr.Instant(engine.PidFaults, inj.tid, "faults", "inject-failed",
			tracing.Args{"fault": w.text, "error": err.Error()})
		return
	}
	inj.active++
	inj.injected++
	inj.countInjected(w.kind)
	inj.activeGauge.Set(float64(inj.active))
	if inj.eng != nil {
		inj.eng.SetFaultActive(true)
	}
	inj.note("inject %s", w.text)
}

// end reverts one fault window.
func (inj *Injector) end(w window) {
	if err := w.edge(true); err != nil {
		inj.note("recover %s FAILED: %v", w.text, err)
		inj.tr.Instant(engine.PidFaults, inj.tid, "faults", "recover-failed",
			tracing.Args{"fault": w.text, "error": err.Error()})
		return
	}
	if inj.active > 0 {
		inj.active--
	}
	inj.activeGauge.Set(float64(inj.active))
	if inj.eng != nil && inj.active == 0 {
		inj.eng.SetFaultActive(false)
	}
	inj.note("recover %s", w.text)
	//nostop:allow obscontract -- span name drawn from the closed fault-kind enums; bounded cardinality
	inj.tr.Span(engine.PidFaults, inj.tid, "faults", w.kind,
		w.at, w.dur, tracing.Args{"fault": w.text})
}

// note appends a timeline entry.
func (inj *Injector) note(format string, args ...any) {
	inj.timeline = append(inj.timeline, Entry{At: inj.sched.Now(), Msg: fmt.Sprintf(format, args...)})
}

// Injected returns how many fault windows have been applied so far.
func (inj *Injector) Injected() int { return inj.injected }

// String renders the timeline, one action per line — the artifact the
// determinism test compares byte-for-byte across seeded runs.
func (inj *Injector) String() string {
	var b []byte
	for _, e := range inj.timeline {
		b = fmt.Appendf(b, "%v %s\n", e.At, e.Msg)
	}
	return string(b)
}
