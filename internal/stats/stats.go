// Package stats provides the statistical primitives the simulator and the
// NoStop controller rely on: online (Welford) accumulators, fixed-capacity
// rolling windows, percentile summaries, and timestamped series.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Online accumulates count/mean/variance incrementally using Welford's
// algorithm, which is numerically stable for long streams. The zero value is
// ready to use.
type Online struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (o *Online) Add(x float64) {
	o.n++
	if o.n == 1 {
		o.min, o.max = x, x
	} else {
		if x < o.min {
			o.min = x
		}
		if x > o.max {
			o.max = x
		}
	}
	d := x - o.mean
	o.mean += d / float64(o.n)
	o.m2 += d * (x - o.mean)
}

// N returns the number of observations.
func (o *Online) N() int { return o.n }

// Mean returns the sample mean, or 0 with no observations.
func (o *Online) Mean() float64 { return o.mean }

// Var returns the population variance (divide by n), or 0 for n < 2.
func (o *Online) Var() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n)
}

// SampleVar returns the sample variance (divide by n-1), or 0 for n < 2.
func (o *Online) SampleVar() float64 {
	if o.n < 2 {
		return 0
	}
	return o.m2 / float64(o.n-1)
}

// Std returns the population standard deviation.
func (o *Online) Std() float64 { return math.Sqrt(o.Var()) }

// SampleStd returns the sample standard deviation.
func (o *Online) SampleStd() float64 { return math.Sqrt(o.SampleVar()) }

// Min returns the smallest observation, or 0 with no observations.
func (o *Online) Min() float64 { return o.min }

// Max returns the largest observation, or 0 with no observations.
func (o *Online) Max() float64 { return o.max }

// Reset discards all observations.
func (o *Online) Reset() { *o = Online{} }

// Merge combines another accumulator into this one (parallel Welford merge).
func (o *Online) Merge(other *Online) {
	if other.n == 0 {
		return
	}
	if o.n == 0 {
		*o = *other
		return
	}
	n := o.n + other.n
	d := other.mean - o.mean
	mean := o.mean + d*float64(other.n)/float64(n)
	m2 := o.m2 + other.m2 + d*d*float64(o.n)*float64(other.n)/float64(n)
	min := o.min
	if other.min < min {
		min = other.min
	}
	max := o.max
	if other.max > max {
		max = other.max
	}
	*o = Online{n: n, mean: mean, m2: m2, min: min, max: max}
}

// Window is a fixed-capacity FIFO of float64 with O(1) mean/std queries.
// When full, adding evicts the oldest value. NoStop uses windows for its
// pause condition (std of the N best objectives) and its input-rate change
// detector (std of recent rates).
type Window struct {
	buf   []float64
	head  int
	count int
	sum   float64
	sumsq float64
}

// NewWindow returns a window holding at most capacity values.
func NewWindow(capacity int) *Window {
	if capacity <= 0 {
		panic(fmt.Sprintf("stats: window capacity %d must be positive", capacity))
	}
	return &Window{buf: make([]float64, capacity)}
}

// Add appends x, evicting the oldest value when full.
func (w *Window) Add(x float64) {
	if w.count == len(w.buf) {
		old := w.buf[w.head]
		w.sum -= old
		w.sumsq -= old * old
	} else {
		w.count++
	}
	w.buf[w.head] = x
	if w.head++; w.head == len(w.buf) {
		w.head = 0
	}
	w.sum += x
	w.sumsq += x * x
}

// Len returns the number of stored values.
func (w *Window) Len() int { return w.count }

// Cap returns the window capacity.
func (w *Window) Cap() int { return len(w.buf) }

// Full reports whether the window holds capacity values.
func (w *Window) Full() bool { return w.count == len(w.buf) }

// Mean returns the mean of stored values, or 0 when empty.
func (w *Window) Mean() float64 {
	if w.count == 0 {
		return 0
	}
	return w.sum / float64(w.count)
}

// Std returns the population standard deviation of stored values.
func (w *Window) Std() float64 {
	if w.count < 2 {
		return 0
	}
	m := w.Mean()
	v := w.sumsq/float64(w.count) - m*m
	if v < 0 { // guard against tiny negative from float cancellation
		v = 0
	}
	return math.Sqrt(v)
}

// Values returns the stored values oldest-first.
func (w *Window) Values() []float64 {
	out := make([]float64, 0, w.count)
	start := w.head - w.count
	for i := 0; i < w.count; i++ {
		out = append(out, w.buf[((start+i)%len(w.buf)+len(w.buf))%len(w.buf)])
	}
	return out
}

// Reset discards all stored values, keeping capacity.
func (w *Window) Reset() {
	w.head, w.count, w.sum, w.sumsq = 0, 0, 0, 0
}

// Summary describes a sample with the statistics the experiment harness
// reports: count, mean, std, min/median/p95/p99/max.
type Summary struct {
	N    int
	Mean float64
	Std  float64
	Min  float64
	P50  float64
	P95  float64
	P99  float64
	Max  float64
}

// Summarize computes a Summary of xs. An empty slice yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return Summary{
		N:    len(xs),
		Mean: o.Mean(),
		Std:  o.Std(),
		Min:  sorted[0],
		P50:  Percentile(sorted, 0.50),
		P95:  Percentile(sorted, 0.95),
		P99:  Percentile(sorted, 0.99),
		Max:  sorted[len(sorted)-1],
	}
}

// Percentile returns the p-quantile (0 <= p <= 1) of an ascending-sorted
// slice using linear interpolation between closest ranks.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Mean returns the arithmetic mean of xs, or 0 when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Std returns the population standard deviation of xs.
func Std(xs []float64) float64 {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	return o.Std()
}

// t95 holds two-sided 97.5% Student t critical values for 1..30 degrees of
// freedom; beyond 30 the normal approximation (1.96) is within 2%.
var t95 = [...]float64{
	12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228,
	2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086,
	2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042,
}

// MeanCI95 returns the sample mean of xs and the half-width of its 95%
// confidence interval, using Student's t critical value for the sample's
// degrees of freedom (replicated experiment runs are small samples, where
// the normal approximation understates the interval). Fewer than two
// observations yield a zero half-width.
func MeanCI95(xs []float64) (mean, half float64) {
	var o Online
	for _, x := range xs {
		o.Add(x)
	}
	if o.N() < 2 {
		return o.Mean(), 0
	}
	df := o.N() - 1
	t := 1.960
	if df <= len(t95) {
		t = t95[df-1]
	}
	return o.Mean(), t * o.SampleStd() / math.Sqrt(float64(o.N()))
}

// Point is one timestamped observation in a Series. T is virtual seconds
// from the simulation epoch.
type Point struct {
	T float64
	V float64
}

// Series is an append-only time series used to record experiment traces
// (e.g. batch interval per optimization iteration for Fig 6).
type Series struct {
	Name   string
	Points []Point
}

// Append adds a point.
func (s *Series) Append(t, v float64) { s.Points = append(s.Points, Point{t, v}) }

// Len returns the number of points.
func (s *Series) Len() int { return len(s.Points) }

// Values returns just the V column.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// Last returns the final point; ok is false when empty.
func (s *Series) Last() (Point, bool) {
	if len(s.Points) == 0 {
		return Point{}, false
	}
	return s.Points[len(s.Points)-1], true
}

// Downsample returns at most n points sampled uniformly across the series,
// always keeping the first and last. Useful for rendering long traces.
func (s *Series) Downsample(n int) []Point {
	if n <= 0 || len(s.Points) <= n {
		return append([]Point(nil), s.Points...)
	}
	out := make([]Point, 0, n)
	step := float64(len(s.Points)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.Points[int(math.Round(float64(i)*step))])
	}
	return out
}
