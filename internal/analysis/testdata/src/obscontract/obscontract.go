// Package obscontractfixture exercises the obscontract analyzer with local
// stand-ins for metrics.Registry and tracing.Tracer (the receiver match is
// by type name, so the fixture need not import the real packages), plus an
// Observer interface with nil-safe and nil-unsafe implementations.
package obscontractfixture

import "fmt"

type series struct{}

// Registry mimics metrics.Registry: the first argument of Counter, Gauge,
// and Histogram is a series name.
type Registry struct{}

func (r *Registry) Counter(name string) *series   { return &series{} }
func (r *Registry) Gauge(name string) *series     { return &series{} }
func (r *Registry) Histogram(name string) *series { return &series{} }

// Args mimics tracing.Args.
type Args map[string]any

// Arg mimics tracing.Arg.
type Arg struct{}

// Tracer mimics tracing.Tracer: Span and Instant carry the name at index 3,
// Counter at index 1, and so do their typed siblings' name prefixes.
type Tracer struct{}

func (t *Tracer) Span(pid, tid int, cat, name string, args Args)    {}
func (t *Tracer) Instant(pid, tid int, cat, name string, args Args) {}
func (t *Tracer) Counter(pid int, name string, values Args)         {}

func (t *Tracer) TypedSpan(pid, tid int, cat, prefix string, id int64, args ...Arg)    {}
func (t *Tracer) TypedInstant(pid, tid int, cat, prefix string, id int64, args ...Arg) {}
func (t *Tracer) TypedCounter(pid int, name string, values ...Arg)                     {}

const histName = "nostop_latency"

func constantNames(reg *Registry, tr *Tracer) {
	reg.Counter("records_total")
	reg.Gauge("queue_depth")
	reg.Histogram(histName)         // named constant folds: fine
	reg.Histogram(histName + "_ms") // constant expression folds: fine
	tr.Span(1, 2, "engine", "batch", nil)
	tr.Instant(1, 2, "engine", "cut", nil)
	tr.Counter(1, "throughput", nil)
	tr.TypedSpan(1, 2, "engine", "batch ", 7)  // the id is not part of the check
	tr.TypedInstant(1, 2, "engine", "cut", -1) // no id
	tr.TypedCounter(1, "queue", Arg{})
}

func dynamicNames(reg *Registry, tr *Tracer, id int) {
	reg.Counter(fmt.Sprintf("batch_%d", id)) // want "Registry.Counter name must be a compile-time constant"
	name := "dyn"
	reg.Gauge(name)                                           // want "Registry.Gauge name must be a compile-time constant"
	reg.Histogram(name + "_ms")                               // want "Registry.Histogram name must be a compile-time constant"
	tr.Span(1, 2, "engine", fmt.Sprintf("batch %d", id), nil) // want "Tracer.Span name must be a compile-time constant"
	tr.Instant(1, 2, "engine", name, nil)                     // want "Tracer.Instant name must be a compile-time constant"
	tr.Counter(1, name, nil)                                  // want "Tracer.Counter name must be a compile-time constant"
	tr.TypedSpan(1, 2, "engine", fmt.Sprintf("b%d", id), -1)  // want "Tracer.TypedSpan name must be a compile-time constant"
	tr.TypedInstant(1, 2, "engine", name, int64(id))          // want "Tracer.TypedInstant name must be a compile-time constant"
	tr.TypedCounter(1, name, Arg{})                           // want "Tracer.TypedCounter name must be a compile-time constant"
}

func boundedName(tr *Tracer, kind fmt.Stringer) {
	//nostop:allow obscontract -- fixture: name drawn from a closed enum
	tr.Span(1, 2, "faults", kind.String(), nil)
}

// FetchObserver opts into the nil-receiver rule by its name suffix.
type FetchObserver interface {
	OnFetch(n int)
	OnCommit(n int)
}

// goodObs keeps every pointer-receiver method nil-safe.
type goodObs struct{ n int }

func (o *goodObs) OnFetch(n int) {
	if o == nil {
		return
	}
	o.n += n
}

func (o *goodObs) OnCommit(n int) {
	if o == nil || n == 0 { // guard inside a wider condition still counts
		return
	}
	o.n = n
}

// badObs forgets the guard on OnCommit.
type badObs struct{ n int }

func (o *badObs) OnFetch(n int) {
	if o == nil {
		return
	}
	o.n = n
}

func (o *badObs) OnCommit(n int) { // want "Observer method OnCommit must begin with a nil-receiver guard"
	o.n = n
}

func (o *badObs) reset() { o.n = 0 } // not an interface method: fine

// valObs has value receivers: a nil pointer never reaches them.
type valObs struct{}

func (valObs) OnFetch(n int) {}
func (valObs) OnCommit(n int) {}

// noopObs has empty bodies: trivially nil-safe.
type noopObs struct{}

func (o *noopObs) OnFetch(n int)  {}
func (o *noopObs) OnCommit(n int) {}
