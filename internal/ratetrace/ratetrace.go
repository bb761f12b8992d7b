// Package ratetrace models the arrival rate of streaming input data.
//
// The paper's generator "sends data items at a random rate within a certain
// range" (§6.2.2: MinRate <= Rate <= MaxRate) and §5.5 additionally requires
// traffic surges (e-commerce promotions, spike activities) to exercise
// NoStop's optimization-restart logic. Each Trace maps virtual time to an
// instantaneous rate in records/second; generators hold a sampled rate for a
// dwell period, mirroring a producer that re-rolls its speed periodically.
package ratetrace

import (
	"fmt"
	"math"
	"sort"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// Trace reports the instantaneous input data rate (records/second) at a
// virtual time. Implementations must be deterministic. Every trace in this
// package is fixed: the same t always yields the same rate, so consumers may
// query out of order. A trace assembled online may instead extend itself,
// as service.FeedTrace does. An extension may change the rate from the
// instant it starts at, and NextChange before that instant, but not the
// integral over an interval that ends at or before it and lies within the
// trace's retention. A consumer of such a trace integrates each interval
// once, when it has ended, and keeps nothing from one call to the next, as
// Integrator does.
type Trace interface {
	// RateAt returns the arrival rate in records per second at time t.
	RateAt(t sim.Time) float64
	// Describe returns a short human-readable description for reports.
	Describe() string
}

// Constant is a fixed-rate trace.
type Constant struct {
	Rate float64 // records/second
}

// RateAt implements Trace.
func (c Constant) RateAt(sim.Time) float64 { return c.Rate }

// Describe implements Trace.
func (c Constant) Describe() string { return fmt.Sprintf("constant %.0f rec/s", c.Rate) }

// UniformBand re-samples a rate uniformly in [Min, Max] every Dwell period
// and holds it, reproducing the paper's experimental generator. Sampling is
// a pure function of the dwell-slot index, so RateAt is deterministic and
// random-access.
type UniformBand struct {
	Min, Max float64
	Dwell    time.Duration
	seed     *rng.Stream

	// Single-slot memo: RateAt is hit every producer tick and ticks land in
	// the same dwell slot for seconds at a time, so the last slot's rate
	// saves hashing the slot's stream name on nearly every call. It stays
	// bit-identical: the rate is a pure function of the slot index. The
	// memo holds the slot's span [cacheStart, cacheEnd), so RateAt and
	// NextChange answer inside it without a 64-bit division; the span is
	// empty until a slot is cached.
	cacheRate  float64
	cacheStart sim.Time
	cacheEnd   sim.Time
}

// NewUniformBand returns a band trace; dwell must be positive and max >= min.
func NewUniformBand(min, max float64, dwell time.Duration, seed *rng.Stream) *UniformBand {
	if dwell <= 0 {
		panic("ratetrace: dwell must be positive")
	}
	if max < min {
		panic(fmt.Sprintf("ratetrace: max %v < min %v", max, min))
	}
	return &UniformBand{Min: min, Max: max, Dwell: dwell, seed: seed}
}

// RateAt implements Trace. A slot's rate is the first draw of the stream
// split off as "slot-<index>", so lookups are order-independent;
// SplitFloat64 computes that draw without building the stream.
//
//nostop:hotpath
func (u *UniformBand) RateAt(t sim.Time) float64 {
	if u.cacheStart <= t && t < u.cacheEnd {
		return u.cacheRate
	}
	slot := int64(t / sim.Time(u.Dwell))
	u.cacheRate = u.Min + (u.Max-u.Min)*u.seed.SplitFloat64("slot-", slot)
	// Division truncates toward zero, so a slot below zero does not span
	// [slot·Dwell, (slot+1)·Dwell); the memo is left empty there.
	u.cacheStart, u.cacheEnd = 0, 0
	if slot >= 0 {
		u.cacheStart = sim.Time(slot) * sim.Time(u.Dwell)
		u.cacheEnd = u.cacheStart + sim.Time(u.Dwell)
	}
	return u.cacheRate
}

// Describe implements Trace.
func (u *UniformBand) Describe() string {
	return fmt.Sprintf("uniform [%.0f, %.0f] rec/s, dwell %v", u.Min, u.Max, u.Dwell)
}

// Sine oscillates around Mean with the given Amplitude and Period, clamped
// at zero. Models smooth diurnal-style variation.
type Sine struct {
	Mean      float64
	Amplitude float64
	Period    time.Duration
	Phase     float64 // radians
}

// RateAt implements Trace.
func (s Sine) RateAt(t sim.Time) float64 {
	if s.Period <= 0 {
		return s.Mean
	}
	omega := 2 * math.Pi / s.Period.Seconds()
	r := s.Mean + s.Amplitude*math.Sin(omega*t.Seconds()+s.Phase)
	if r < 0 {
		r = 0
	}
	return r
}

// Describe implements Trace.
func (s Sine) Describe() string {
	return fmt.Sprintf("sine %.0f±%.0f rec/s, period %v", s.Mean, s.Amplitude, s.Period)
}

// Surge holds Base rate, then jumps to Peak during [Start, Start+Duration),
// then returns to Base. Exercises §5.5's reset-on-rate-change logic.
type Surge struct {
	Base, Peak float64
	Start      sim.Time
	Duration   time.Duration
}

// RateAt implements Trace.
func (s Surge) RateAt(t sim.Time) float64 {
	if t >= s.Start && t < s.Start+sim.Time(s.Duration) {
		return s.Peak
	}
	return s.Base
}

// Describe implements Trace.
func (s Surge) Describe() string {
	return fmt.Sprintf("surge %.0f→%.0f rec/s at %v for %v", s.Base, s.Peak, s.Start, s.Duration)
}

// Step is one segment of a piecewise-constant trace.
type Step struct {
	From sim.Time // segment start (inclusive)
	Rate float64
}

// Steps is a piecewise-constant trace defined by ascending segments. Times
// before the first segment use the first segment's rate.
type Steps []Step

// NewSteps validates and returns a step trace. Segments must be ascending.
func NewSteps(steps []Step) (Steps, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("ratetrace: empty step trace")
	}
	for i := 1; i < len(steps); i++ {
		if steps[i].From <= steps[i-1].From {
			return nil, fmt.Errorf("ratetrace: step %d at %v not after %v", i, steps[i].From, steps[i-1].From)
		}
	}
	return Steps(steps), nil
}

// RateAt implements Trace.
func (s Steps) RateAt(t sim.Time) float64 {
	// Binary search for the last segment with From <= t.
	i := sort.Search(len(s), func(i int) bool { return s[i].From > t })
	if i == 0 {
		return s[0].Rate
	}
	return s[i-1].Rate
}

// Describe implements Trace.
func (s Steps) Describe() string { return fmt.Sprintf("piecewise-constant, %d segments", len(s)) }

// UserStep is one segment of a user-population trace: the number of active
// users from a given instant.
type UserStep struct {
	From  sim.Time
	Users float64
}

// Users models a tenant's load as an evolving user population times a
// per-user event rate — the unit the ROADMAP's millions-of-users north star
// is denominated in. A tenant serving 2M users each emitting 0.005 events/s
// drives 10k rec/s; population changes (diurnal ramps, promotion spikes)
// move the aggregate rate piecewise. Deterministic and random-access like
// every other trace.
type Users struct {
	PerUserRate float64 // events per second per active user
	Population  []UserStep
}

// NewUsers validates and returns a user-population trace. Population
// segments must be ascending in time; rates and populations non-negative.
func NewUsers(perUserRate float64, population []UserStep) (*Users, error) {
	if perUserRate < 0 {
		return nil, fmt.Errorf("ratetrace: negative per-user rate %v", perUserRate)
	}
	if len(population) == 0 {
		return nil, fmt.Errorf("ratetrace: empty user population")
	}
	for i, p := range population {
		if p.Users < 0 {
			return nil, fmt.Errorf("ratetrace: negative population at segment %d", i)
		}
		if i > 0 && p.From <= population[i-1].From {
			return nil, fmt.Errorf("ratetrace: population segment %d at %v not after %v",
				i, p.From, population[i-1].From)
		}
	}
	return &Users{PerUserRate: perUserRate, Population: population}, nil
}

// UsersAt returns the active user population at time t.
func (u *Users) UsersAt(t sim.Time) float64 {
	i := sort.Search(len(u.Population), func(i int) bool { return u.Population[i].From > t })
	if i == 0 {
		return u.Population[0].Users
	}
	return u.Population[i-1].Users
}

// RateAt implements Trace.
func (u *Users) RateAt(t sim.Time) float64 { return u.UsersAt(t) * u.PerUserRate }

// Describe implements Trace.
func (u *Users) Describe() string {
	peak := 0.0
	for _, p := range u.Population {
		if p.Users > peak {
			peak = p.Users
		}
	}
	return fmt.Sprintf("users ≤%.2gM × %.3g ev/s/user, %d segments",
		peak/1e6, u.PerUserRate, len(u.Population))
}

// NextChange implements Stepper: the next population segment boundary, so
// RecordsIn integrates the piecewise-constant aggregate rate exactly.
func (u *Users) NextChange(t sim.Time) sim.Time {
	i := sort.Search(len(u.Population), func(i int) bool { return u.Population[i].From > t })
	if i == len(u.Population) {
		return sim.Infinity
	}
	return u.Population[i].From
}

// Scaled multiplies an inner trace by Factor — handy for replaying a shape
// at a workload-appropriate magnitude.
type Scaled struct {
	Inner  Trace
	Factor float64
}

// RateAt implements Trace.
func (s Scaled) RateAt(t sim.Time) float64 { return s.Factor * s.Inner.RateAt(t) }

// Describe implements Trace.
func (s Scaled) Describe() string {
	return fmt.Sprintf("%.2fx (%s)", s.Factor, s.Inner.Describe())
}

// Clamped restricts an inner trace to [Min, Max], mirroring §6.2.2's note
// that systems restrict instantaneous surge rates (e.g. Kafka quota).
type Clamped struct {
	Inner    Trace
	Min, Max float64
}

// RateAt implements Trace.
func (c Clamped) RateAt(t sim.Time) float64 {
	r := c.Inner.RateAt(t)
	if r < c.Min {
		return c.Min
	}
	if r > c.Max {
		return c.Max
	}
	return r
}

// Describe implements Trace.
func (c Clamped) Describe() string {
	return fmt.Sprintf("clamp [%.0f, %.0f] of (%s)", c.Min, c.Max, c.Inner.Describe())
}

// Stepper is implemented by piecewise-constant traces. NextChange returns
// the earliest instant strictly after t at which the rate may change
// (sim.Infinity if it never does), letting RecordsIn integrate exactly with
// one RateAt call per constant segment. For a trace that extends itself
// online, the answer holds only until the next extension (see Trace), so a
// consumer must not keep it across one.
type Stepper interface {
	NextChange(t sim.Time) sim.Time
}

// NextChange implements Stepper: a constant never changes.
func (c Constant) NextChange(sim.Time) sim.Time { return sim.Infinity }

// NextChange implements Stepper: the next dwell-slot boundary.
func (u *UniformBand) NextChange(t sim.Time) sim.Time {
	if u.cacheStart <= t && t < u.cacheEnd {
		return u.cacheEnd
	}
	slot := t / sim.Time(u.Dwell)
	return (slot + 1) * sim.Time(u.Dwell)
}

// NextChange implements Stepper: the surge's start and end edges.
func (s Surge) NextChange(t sim.Time) sim.Time {
	if t < s.Start {
		return s.Start
	}
	if end := s.Start + sim.Time(s.Duration); t < end {
		return end
	}
	return sim.Infinity
}

// NextChange implements Stepper: the next segment boundary.
func (s Steps) NextChange(t sim.Time) sim.Time {
	i := sort.Search(len(s), func(i int) bool { return s[i].From > t })
	if i == len(s) {
		return sim.Infinity
	}
	return s[i].From
}

// NextChange implements Stepper by delegating to the inner trace.
func (s Scaled) NextChange(t sim.Time) sim.Time {
	if st, ok := s.Inner.(Stepper); ok {
		return st.NextChange(t)
	}
	return t + 1 // not piecewise constant: the rate may change at any instant
}

// NextChange implements Stepper by delegating to the inner trace. Clamping a
// piecewise-constant trace stays piecewise-constant on the same boundaries.
func (c Clamped) NextChange(t sim.Time) sim.Time {
	if st, ok := c.Inner.(Stepper); ok {
		return st.NextChange(t)
	}
	return t + 1
}

// RecordsIn integrates a trace over [from, to), returning the (fractional)
// number of records arriving in the interval. Piecewise-constant traces
// integrate exactly segment by segment; other traces (e.g. Sine, or Scaled
// and Clamped around one) fall back to midpoint sampling at millisecond
// resolution. A caller that integrates one trace repeatedly keeps an
// Integrator instead, which resolves the trace's Stepper once.
func RecordsIn(tr Trace, from, to sim.Time) float64 {
	in := NewIntegrator(tr)
	return in.RecordsIn(from, to, (to - from).Seconds())
}

// Integrator integrates one trace, with its Stepper resolved once. It keeps
// nothing between calls, so a trace that extends itself online (see
// service.FeedTrace) is read afresh on every call.
type Integrator struct {
	tr Trace
	st Stepper // nil: tr is not piecewise constant
}

// NewIntegrator returns the Integrator of tr.
func NewIntegrator(tr Trace) Integrator {
	st, _ := piecewise(tr)
	return Integrator{tr: tr, st: st}
}

// RecordsIn is the package-level RecordsIn of the integrator's trace; secs
// must be (to-from).Seconds(), which a caller ticking at a fixed period
// converts once. An interval inside one constant segment costs one
// NextChange, one RateAt and one multiply, with the bits the segment loop
// computes on its first and only pass.
//
//nostop:hotpath
func (in *Integrator) RecordsIn(from, to sim.Time, secs float64) float64 {
	if to <= from {
		return 0
	}
	st := in.st
	if st == nil {
		return midpoint(in.tr, from, to)
	}
	if st.NextChange(from) >= to {
		return 0 + float64(in.tr.RateAt(from)*secs)
	}
	total := 0.0
	for t := from; t < to; {
		next := st.NextChange(t)
		if next <= t { // defensive: a broken Stepper must not hang us
			next = t + sim.Time(time.Millisecond)
		}
		if next > to {
			next = to
		}
		total += in.tr.RateAt(t) * (next - t).Seconds()
		t = next
	}
	return total
}

// midpoint integrates a trace that is not piecewise constant by midpoint
// sampling at millisecond resolution.
func midpoint(tr Trace, from, to sim.Time) float64 {
	const step = time.Millisecond
	total := 0.0
	for t := from; t < to; {
		next := t + sim.Time(step)
		if next > to {
			next = to
		}
		mid := t + (next-t)/2
		total += tr.RateAt(mid) * (next - t).Seconds()
		t = next
	}
	return total
}

// wrapper is implemented by traces that transform an inner trace (Scaled,
// Clamped).
type wrapper interface{ inner() Trace }

func (s Scaled) inner() Trace  { return s.Inner }
func (c Clamped) inner() Trace { return c.Inner }

// piecewise returns tr's Stepper when tr is piecewise constant. A wrapper
// implements Stepper whatever it wraps, but is piecewise constant only when
// its inner trace is; around any other trace its NextChange steps 1 ns at
// a time.
func piecewise(tr Trace) (Stepper, bool) {
	if w, ok := tr.(wrapper); ok {
		if _, ok := piecewise(w.inner()); !ok {
			return nil, false
		}
	}
	st, ok := tr.(Stepper)
	return st, ok
}

// Sample evaluates the trace every interval over [0, horizon) and returns
// (times in seconds, rates). Used to render Fig 5.
func Sample(tr Trace, horizon sim.Time, interval time.Duration) (ts, rates []float64) {
	for t := sim.Time(0); t < horizon; t += sim.Time(interval) {
		ts = append(ts, t.Seconds())
		rates = append(rates, tr.RateAt(t))
	}
	return ts, rates
}
