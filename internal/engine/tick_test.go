package engine_test

import (
	"math"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/service"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// The producer tick integrates a tick inside one constant segment with one
// multiply, converts its span to seconds once per span and memoizes its
// rate. These tests hold it, bit for bit, to a copy of the arithmetic it
// replaced: RecordsIn's segment loop, a seconds conversion and a division
// per tick, UniformBand's slot by division, and the rate window's modulo.

// refRecordsIn is RecordsIn as it was before the Integrator.
func refRecordsIn(tr ratetrace.Trace, from, to sim.Time) float64 {
	if to <= from {
		return 0
	}
	total := 0.0
	for t := from; t < to; {
		next := tr.NextChange(t)
		if next <= t {
			next = t + sim.Time(time.Millisecond)
		}
		if next > to {
			next = to
		}
		total += tr.RateAt(t) * (next - t).Seconds()
		t = next
	}
	return total
}

// refBand is UniformBand without its memo: the slot by division on every
// query.
type refBand struct {
	min, max float64
	dwell    time.Duration
	seed     *rng.Stream
}

func (b refBand) RateAt(t sim.Time) float64 {
	slot := int64(t / sim.Time(b.dwell))
	return b.min + (b.max-b.min)*b.seed.SplitFloat64("slot-", slot)
}

func (b refBand) NextChange(t sim.Time) sim.Time {
	slot := t / sim.Time(b.dwell)
	return (slot + 1) * sim.Time(b.dwell)
}

func (b refBand) Describe() string { return "reference band" }

// scaled, clamped and msSine are traces an application defines itself, as
// examples/logregression lifts a base trace by a surge: two wrappers that
// keep their base's segments, and a sine held over each millisecond, so a
// 100 ms tick integrates a hundred segments.
type scaled struct {
	tr     ratetrace.Trace
	factor float64
}

func (s scaled) RateAt(t sim.Time) float64      { return s.factor * s.tr.RateAt(t) }
func (s scaled) NextChange(t sim.Time) sim.Time { return s.tr.NextChange(t) }
func (s scaled) Describe() string               { return "scaled" }

type clamped struct {
	tr       ratetrace.Trace
	min, max float64
}

func (c clamped) RateAt(t sim.Time) float64      { return math.Min(math.Max(c.tr.RateAt(t), c.min), c.max) }
func (c clamped) NextChange(t sim.Time) sim.Time { return c.tr.NextChange(t) }
func (c clamped) Describe() string               { return "clamped" }

type msSine struct {
	mean, amp float64
	period    time.Duration
}

func (s msSine) RateAt(t sim.Time) float64 {
	mid := (float64(t/sim.Time(time.Millisecond)) + 0.5) / 1000
	return s.mean + s.amp*math.Sin(2*math.Pi*mid/s.period.Seconds())
}

func (s msSine) NextChange(t sim.Time) sim.Time {
	ms := sim.Time(time.Millisecond)
	return (t/ms + 1) * ms
}

func (s msSine) Describe() string { return "sine held per millisecond" }

// refWindow is stats.Window as it was, head advanced by a modulo.
type refWindow struct {
	buf        []float64
	head, n    int
	sum, sumsq float64
}

func (w *refWindow) add(x float64) {
	if w.n == len(w.buf) {
		old := w.buf[w.head]
		w.sum -= old
		w.sumsq -= old * old
	} else {
		w.n++
	}
	w.buf[w.head] = x
	w.head = (w.head + 1) % len(w.buf)
	w.sum += x
	w.sumsq += x * x
}

func (w *refWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

func (w *refWindow) std() float64 {
	if w.n < 2 {
		return 0
	}
	m := w.mean()
	v := w.sumsq/float64(w.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// refTick is the producer tick's arithmetic as it was.
type refTick struct {
	tr             ratetrace.Trace
	boost, cap     float64
	last           sim.Time
	fracCarry      float64
	total, dropped int64
	window         refWindow
	arrivals, rate float64
}

func (r *refTick) tick(now sim.Time) {
	arrivals := refRecordsIn(r.tr, r.last, now) * r.boost
	n := arrivals + r.fracCarry
	elapsed := (now - r.last).Seconds()
	rate := 0.0
	if elapsed > 0 {
		rate = arrivals / elapsed
	}
	if r.cap > 0 && elapsed > 0 {
		allowed := r.cap * elapsed
		if n-r.fracCarry > allowed {
			r.dropped += int64(n - r.fracCarry - allowed)
			n = allowed + r.fracCarry
		}
	}
	whole := int64(n)
	r.fracCarry = n - float64(whole)
	r.last = now
	r.window.add(rate)
	r.total += whole
	r.arrivals, r.rate = arrivals, rate
}

// tickTimes returns n tick instants from first, 100 ms apart but for every
// seventh gap, which takes one of the other spans a tick may see.
func tickTimes(first sim.Time, n int) []sim.Time {
	odd := []time.Duration{130 * time.Millisecond, time.Millisecond, 250 * time.Millisecond,
		200 * time.Millisecond, 37 * time.Millisecond}
	ts := []sim.Time{first}
	for i := 1; i < n; i++ {
		gap := 100 * time.Millisecond
		if i%7 == 0 {
			gap = odd[(i/7)%len(odd)]
		}
		ts = append(ts, ts[i-1]+sim.Time(gap))
	}
	return ts
}

// feeder appends fetched segments to a FeedTrace as the service engine
// does: one Add of a second's records at each fetch reply, the replies a
// few milliseconds late by varying amounts, so a segment is sometimes
// clipped to start at the previous one's end.
type feeder struct {
	feed *service.FeedTrace
	next sim.Time
	r    *rng.Stream
}

func (f *feeder) upTo(now sim.Time) {
	for f.next <= now {
		jitter := sim.Time(f.r.Intn(30)) * sim.Time(time.Millisecond)
		f.feed.Add(f.next+jitter, time.Second, int64(500+f.r.Intn(1000)))
		f.next += sim.Time(time.Second)
	}
}

// tickCase is one trace and tick schedule. mk builds the trace as the
// engine sees it and as the reference sees it, and for a FeedTrace the
// feeder that extends it before each tick. straddle marks a trace whose
// rate must change inside some tick, so the segment loop runs.
type tickCase struct {
	name       string
	mk         func() (tr, ref ratetrace.Trace, feed *feeder)
	ticks      []sim.Time
	boost, cap float64
	straddle   bool
}

func tickCases() []tickCase {
	seed := rng.New(11).Split("tick-lockstep")
	band := func(d time.Duration) (*ratetrace.UniformBand, refBand) {
		s := seed.Split(d.String())
		return ratetrace.NewUniformBand(800, 1200, d, s), refBand{800, 1200, d, s}
	}
	bandCase := func(d time.Duration) func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
		return func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
			b, r := band(d)
			return b, r, nil
		}
	}
	fixed := func(tr ratetrace.Trace) func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
		return func() (ratetrace.Trace, ratetrace.Trace, *feeder) { return tr, tr, nil }
	}
	// One user at one event per second: the population is the rate.
	steps, _ := ratetrace.NewUsers(1, []ratetrace.UserStep{{From: 0, Users: 1000},
		{From: sim.Time(1230 * time.Millisecond), Users: 3000}, {From: sim.Time(2500 * time.Millisecond), Users: 0},
		{From: sim.Time(4050 * time.Millisecond), Users: 777.7}})
	users, _ := ratetrace.NewUsers(0.005, []ratetrace.UserStep{{From: 0, Users: 2e5},
		{From: sim.Time(3300 * time.Millisecond), Users: 4e5}, {From: sim.Time(7 * time.Second), Users: 1e5}})
	surge := ratetrace.Surge{Base: 1000, Peak: 5000, Start: sim.Time(2050 * time.Millisecond), Duration: 3330 * time.Millisecond}
	// The same arrivals over spans of 100 and 200 ms: a rate memo keyed
	// on the arrivals alone would repeat 1000 rec/s for the second.
	halving := ratetrace.Surge{Base: 500, Peak: 1000, Duration: time.Second}
	sine := msSine{mean: 1000, amp: 400, period: 7 * time.Second}

	regular := tickTimes(sim.Time(100*time.Millisecond), 1500)
	odd := tickTimes(sim.Time(37*time.Millisecond), 1500)
	cases := []tickCase{
		{name: "band-5s", mk: bandCase(5 * time.Second)},
		{name: "band-20s", mk: bandCase(20 * time.Second)},
		{name: "band-130ms", mk: bandCase(130 * time.Millisecond)},
		{name: "steps", mk: fixed(steps), straddle: true},
		{name: "users", mk: fixed(users), straddle: true},
		{name: "surge", mk: fixed(surge), straddle: true},
		{name: "constant", mk: fixed(ratetrace.Constant{Rate: 1234.5})},
		{name: "scaled-band", mk: func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
			b, r := band(5 * time.Second)
			return scaled{b, 1.37}, scaled{r, 1.37}, nil
		}},
		{name: "clamped-band", mk: func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
			b, r := band(130 * time.Millisecond)
			return clamped{b, 900, 1100}, clamped{r, 900, 1100}, nil
		}},
		{name: "scaled-sine", mk: fixed(scaled{sine, 0.9}), straddle: true},
		{name: "clamped-sine", mk: fixed(clamped{sine, 800, 1300}), straddle: true},
		{name: "feed", mk: func() (ratetrace.Trace, ratetrace.Trace, *feeder) {
			f := &service.FeedTrace{}
			return f, f, &feeder{feed: f, next: sim.Time(time.Second), r: seed.Split("feed")}
		}},
	}
	var out []tickCase
	for _, c := range cases {
		// Each trace twice: 100 ms ticks from the start, and ticks from
		// an odd first offset with a boost and a cap that binds at times.
		// Both schedules take other spans every seventh tick.
		a, b := c, c
		a.ticks, a.boost = regular, 1
		b.name, b.ticks, b.boost, b.cap = c.name+"/boost-cap", odd, 1.7, 1700
		out = append(out, a, b)
	}
	return append(out, tickCase{name: "equal-arrivals", mk: fixed(halving), boost: 1,
		ticks: []sim.Time{sim.Time(900 * time.Millisecond), sim.Time(time.Second), sim.Time(1200 * time.Millisecond)}})
}

// TestProducerTickMatchesReference drives the engine's producer tick and
// the reference arithmetic in lockstep over each trace, comparing the bits
// of every tick's arrivals, rate and carried fraction, the rate window's
// mean and standard deviation, and the whole and dropped counts.
func TestProducerTickMatchesReference(t *testing.T) {
	bits := math.Float64bits
	for _, tc := range tickCases() {
		t.Run(tc.name, func(t *testing.T) {
			tr, refTr, feed := tc.mk()
			clock := sim.NewClock()
			e, err := engine.New(clock, engine.Options{
				Workload: workload.NewWordCount(),
				Trace:    tr,
				Seed:     rng.New(3),
				Initial:  engine.Config{BatchInterval: 10 * time.Second, Executors: 4},
			})
			if err != nil {
				t.Fatal(err)
			}
			e.SetIngestBoost(tc.boost)
			e.SetIngestCap(tc.cap)
			ref := &refTick{tr: refTr, boost: tc.boost, cap: tc.cap, window: refWindow{buf: make([]float64, 600)}}
			straddled := false
			for i, now := range tc.ticks {
				if feed != nil {
					feed.upTo(now)
				}
				straddled = straddled || refTr.NextChange(ref.last) < now
				clock.RunUntil(now)
				got := e.Tick()
				ref.tick(now)
				for _, v := range []struct {
					what      string
					got, want float64
				}{
					{"arrivals", got.Arrivals, ref.arrivals},
					{"rate", got.Rate, ref.rate},
					{"fracCarry", got.FracCarry, ref.fracCarry},
					{"window mean", e.RecentRateMean(), ref.window.mean()},
					{"window std", e.RecentRateStd(), ref.window.std()},
				} {
					if bits(v.got) != bits(v.want) {
						t.Fatalf("tick %d at %v: %s %v (%#x), reference %v (%#x)",
							i, now, v.what, v.got, bits(v.got), v.want, bits(v.want))
					}
				}
				if got.Total != ref.total || got.Dropped != ref.dropped {
					t.Fatalf("tick %d at %v: %d records, %d dropped; reference %d and %d",
						i, now, got.Total, got.Dropped, ref.total, ref.dropped)
				}
			}
			if tc.cap > 0 && ref.dropped == 0 {
				t.Fatal("the cap never bound")
			}
			if tc.straddle && !straddled {
				t.Fatal("no tick straddled a rate change")
			}
		})
	}
}
