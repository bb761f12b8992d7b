// Package metrics implements a deterministic, simulation-friendly metrics
// registry: counters, gauges, and fixed-bucket histograms with exact decimal
// bucket bounds, exported in the Prometheus text exposition format.
//
// The registry is the substrate-side half of the paper's observability
// argument: NoStop only works because delay, processing time, and queue
// state are continuously observable through the Spark StreamingListener
// (§4.3, Fig 4). Every runtime layer of the simulator (broker, engine,
// fault injector, controller) registers its instruments here, and the
// listener package serves the result over HTTP `/metrics`.
//
// Determinism contract (DESIGN.md §5d): nothing in this package reads the
// wall clock or draws randomness, all values advance only when simulation
// events fire, and the exposition is rendered in sorted (family name, label
// signature) order — so two same-seed runs export byte-identical text. The
// registry itself is mutex-guarded because HTTP export goroutines read it
// while the simulation thread writes; the values observed are whatever the
// simulation had produced when the exporting request was serialised (see
// the listener package for the locking contract).
package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one key="value" pair attached to a metric instrument.
type Label struct {
	// Key is the Prometheus label name.
	Key string
	// Value is the label value; it is escaped on export.
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Kind discriminates the metric families a Registry can hold.
type Kind int

// Metric family kinds.
const (
	// KindCounter is a monotonically non-decreasing cumulative value.
	KindCounter Kind = iota
	// KindGauge is a value that can go up and down.
	KindGauge
	// KindHistogram is a fixed-bucket cumulative histogram.
	KindHistogram
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// family is one named metric with its children (one per label signature).
type family struct {
	name     string
	help     string
	kind     Kind
	buckets  []float64 // histogram upper bounds, ascending; +Inf implicit
	children map[string]*child
}

// child is the concrete instrument state for one label signature.
type child struct {
	labels []Label // in key order
	value  float64 // counter / gauge

	bucketCounts []uint64 // histogram: per-bucket (non-cumulative) counts
	count        uint64   // histogram: total observations
	sum          float64  // histogram: sum of observed values
}

// DelaySecondsBuckets is the standard bucket ladder for batch-delay
// histograms (seconds). The bounds are exact decimals spanning the §6
// operating range: sub-second receiver work up through the multi-minute
// scheduling delays an unstable probe accumulates (Fig 2's knee).
func DelaySecondsBuckets() []float64 {
	return []float64{0.1, 0.25, 0.5, 1, 2.5, 5, 10, 20, 40, 60, 120, 300, 600}
}

// RecordCountBuckets is the standard bucket ladder for per-batch record
// counts, covering the paper's 10⁴–10⁵ records/s bands times 1–40 s
// intervals.
func RecordCountBuckets() []float64 {
	return []float64{1000, 10000, 50000, 100000, 500000, 1000000, 5000000, 10000000}
}

// Registry holds metric families and renders them as Prometheus text.
// The zero value is not usable; use NewRegistry. A nil *Registry is a
// valid no-op sink for every constructor on it, so instrumented code can
// run unconditionally.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or looks up) a counter with the given name, help text,
// and label set, returning the instrument. Registering the same name with a
// different kind panics: metric names are a static vocabulary and a clash
// is a programming error. A nil registry returns a no-op instrument.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	return &Counter{c: r.instrument(name, help, KindCounter, nil, labels), r: r}
}

// Gauge registers (or looks up) a gauge instrument. A nil registry returns
// a no-op instrument.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	return &Gauge{c: r.instrument(name, help, KindGauge, nil, labels), r: r}
}

// Histogram registers (or looks up) a fixed-bucket histogram. buckets are
// the upper bounds (`le`, inclusive) in strictly ascending order; a +Inf
// bucket is implicit. Re-registering the same name with different buckets
// panics. A nil registry returns a no-op instrument.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		panic("metrics: histogram " + name + " needs at least one bucket bound")
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("metrics: histogram %s bucket bounds not ascending at %v", name, buckets[i]))
		}
	}
	c := r.instrument(name, help, KindHistogram, buckets, labels)
	r.mu.Lock()
	b := r.families[name].buckets
	r.mu.Unlock()
	return &Histogram{c: c, r: r, b: b}
}

// instrument finds or creates the (family, child) pair under the lock.
func (r *Registry) instrument(name, help string, kind Kind, buckets []float64, labels []Label) *child {
	labels = sortedLabels(labels)
	sig := labelSignature(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{
			name: name, help: help, kind: kind,
			buckets:  append([]float64(nil), buckets...),
			children: make(map[string]*child),
		}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %v, requested as %v", name, f.kind, kind))
	}
	if kind == KindHistogram && !equalBounds(f.buckets, buckets) {
		panic(fmt.Sprintf("metrics: histogram %s re-registered with different buckets", name))
	}
	c, ok := f.children[sig]
	if !ok {
		c = &child{labels: labels}
		if kind == KindHistogram {
			c.bucketCounts = make([]uint64, len(f.buckets))
		}
		f.children[sig] = c
	}
	return c
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Counter is a monotonically non-decreasing cumulative metric. A nil
// *Counter is a no-op.
type Counter struct {
	c *child
	r *Registry
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.Add(1) }

// Add increases the counter by v; negative v panics (counters only go up).
//
//nostop:hotpath
func (c *Counter) Add(v float64) {
	if c == nil {
		return
	}
	if v < 0 {
		panic("metrics: counter decreased")
	}
	c.r.mu.Lock()
	c.c.value += v
	c.r.mu.Unlock()
}

// Value returns the current counter value.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	c.r.mu.Lock()
	defer c.r.mu.Unlock()
	return c.c.value
}

// Gauge is a metric that can move in both directions. A nil *Gauge is a
// no-op.
type Gauge struct {
	c *child
	r *Registry
}

// Set replaces the gauge value.
//
//nostop:hotpath
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.r.mu.Lock()
	g.c.value = v
	g.r.mu.Unlock()
}

// Histogram is a fixed-bucket cumulative histogram. A nil *Histogram is a
// no-op.
type Histogram struct {
	c *child
	r *Registry
	b []float64 // the owning family's bucket bounds (shared, read-only)
}

// Observe records one sample. Bucket bounds are inclusive upper bounds
// (Prometheus `le` semantics): a sample exactly on a bound counts into that
// bound's bucket. Samples above the last bound only count toward +Inf.
// NaN observations are dropped — they would poison the sum forever.
//
//nostop:hotpath
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	h.r.mu.Lock()
	defer h.r.mu.Unlock()
	f := h.c
	f.count++
	f.sum += v
	// First bound >= v is the owning bucket (le is inclusive).
	i := sort.SearchFloat64s(h.b, v)
	if i < len(f.bucketCounts) {
		f.bucketCounts[i]++
	}
}

// sortedLabels returns a copy of labels in key order. The sort is stable,
// so a repeated key keeps its registration order.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	ls := append([]Label(nil), labels...)
	sort.SliceStable(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	return ls
}

// labelSignature renders labels, already in key order, as a stable map key.
func labelSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for _, l := range labels {
		b.WriteString(l.Key)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(l.Value))
		b.WriteByte(',')
	}
	return b.String()
}

// appendValue renders a float the way the exposition does: integral values
// as plain decimals ("12", "0.5" stays "0.5"), everything else via the
// shortest round-trip representation. The output is deterministic for a
// given bit pattern.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendFloat(b, v, 'f', -1, 64)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// appendEscaped appends a label value escaped per the exposition format:
// backslash, newline and double quote.
func appendEscaped(b []byte, v string) []byte {
	start := 0
	for i := 0; i < len(v); i++ {
		var esc byte
		switch v[i] {
		case '\\':
			esc = '\\'
		case '\n':
			esc = 'n'
		case '"':
			esc = '"'
		default:
			continue
		}
		b = append(b, v[start:i]...)
		b = append(b, '\\', esc)
		start = i + 1
	}
	return append(b, v[start:]...)
}

// appendSeries appends a sample line's series: name, suffix and the
// {k="v",...} labels, with le spliced in where a sort by key puts it when
// withLE, and the space before the value.
func appendSeries(b []byte, name, suffix string, labels []Label, le float64, withLE bool) []byte {
	b = append(b, name...)
	b = append(b, suffix...)
	if len(labels) == 0 && !withLE {
		return append(b, ' ')
	}
	b = append(b, '{')
	n := 0 // labels written so far
	for _, l := range labels {
		if withLE && l.Key > "le" {
			b = appendLE(b, n > 0, le)
			n++
			withLE = false
		}
		if n > 0 {
			b = append(b, ',')
		}
		b = append(b, l.Key...)
		b = append(b, '=', '"')
		b = appendEscaped(b, l.Value)
		b = append(b, '"')
		n++
	}
	if withLE {
		b = appendLE(b, n > 0, le)
	}
	return append(b, '}', ' ')
}

// appendLE appends a bucket's le label, after a comma when it follows
// another label.
func appendLE(b []byte, comma bool, le float64) []byte {
	if comma {
		b = append(b, ',')
	}
	b = append(b, `le="`...)
	b = appendValue(b, le)
	return append(b, '"')
}

// The exposition is built in one scratch buffer of expoBufSize bytes,
// written out each time it holds expoFlushAt bytes or more.
const (
	expoBufSize = 4 << 10
	expoFlushAt = expoBufSize - 512
)

// expoWriter appends exposition lines to its buffer and writes the buffer
// to w when it fills; the first write error sticks.
type expoWriter struct {
	w   io.Writer
	buf []byte
	err error
}

// endLine ends the current line, flushing a full buffer.
func (e *expoWriter) endLine() {
	e.buf = append(e.buf, '\n')
	if len(e.buf) >= expoFlushAt {
		e.flush()
	}
}

// flush writes the buffered lines.
func (e *expoWriter) flush() {
	if e.err == nil && len(e.buf) > 0 {
		_, e.err = e.w.Write(e.buf)
	}
	e.buf = e.buf[:0]
}

// WritePrometheus renders the whole registry in the Prometheus text
// exposition format (version 0.0.4), sorted by family name and label
// signature so the output is byte-stable across runs.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)
	e := expoWriter{w: w, buf: make([]byte, 0, expoBufSize)}
	var sigs []string
	for _, name := range names {
		f := r.families[name]
		e.buf = append(e.buf, "# HELP "...)
		e.buf = append(e.buf, f.name...)
		e.buf = append(e.buf, ' ')
		e.buf = append(e.buf, f.help...)
		e.endLine()
		e.buf = append(e.buf, "# TYPE "...)
		e.buf = append(e.buf, f.name...)
		e.buf = append(e.buf, ' ')
		e.buf = append(e.buf, f.kind.String()...)
		e.endLine()
		sigs = sigs[:0]
		for sig := range f.children {
			sigs = append(sigs, sig)
		}
		sort.Strings(sigs)
		for _, sig := range sigs {
			e.child(f, f.children[sig])
		}
		if e.err != nil {
			return e.err
		}
	}
	e.flush()
	return e.err
}

// child appends one instrument's sample lines. Callers hold r.mu.
func (e *expoWriter) child(f *family, c *child) {
	switch f.kind {
	case KindCounter, KindGauge:
		e.buf = appendSeries(e.buf, f.name, "", c.labels, 0, false)
		e.buf = appendValue(e.buf, c.value)
		e.endLine()
	case KindHistogram:
		var cum uint64
		for i, bound := range f.buckets {
			cum += c.bucketCounts[i]
			e.buf = appendSeries(e.buf, f.name, "_bucket", c.labels, bound, true)
			e.buf = strconv.AppendUint(e.buf, cum, 10)
			e.endLine()
		}
		e.buf = appendSeries(e.buf, f.name, "_bucket", c.labels, math.Inf(1), true)
		e.buf = strconv.AppendUint(e.buf, c.count, 10)
		e.endLine()
		e.buf = appendSeries(e.buf, f.name, "_sum", c.labels, 0, false)
		e.buf = appendValue(e.buf, c.sum)
		e.endLine()
		e.buf = appendSeries(e.buf, f.name, "_count", c.labels, 0, false)
		e.buf = strconv.AppendUint(e.buf, c.count, 10)
		e.endLine()
	}
}

// String renders the exposition into a string (convenience for tests and
// file dumps).
func (r *Registry) String() string {
	var b strings.Builder
	_ = r.WritePrometheus(&b)
	return b.String()
}
