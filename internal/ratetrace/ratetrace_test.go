package ratetrace

import (
	"fmt"
	"math"
	"testing"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

func sec(n float64) sim.Time { return sim.Time(n * float64(time.Second)) }

func TestConstant(t *testing.T) {
	c := Constant{Rate: 5000}
	for _, tm := range []sim.Time{0, sec(1), sec(1000)} {
		if c.RateAt(tm) != 5000 {
			t.Fatalf("RateAt(%v)=%v", tm, c.RateAt(tm))
		}
	}
	if c.Describe() == "" {
		t.Error("empty description")
	}
}

func TestUniformBandStaysInRange(t *testing.T) {
	u := NewUniformBand(7000, 13000, 5*time.Second, rng.New(1))
	for i := 0; i < 2000; i++ {
		r := u.RateAt(sec(float64(i) * 0.25))
		if r < 7000 || r > 13000 {
			t.Fatalf("rate %v outside [7000,13000]", r)
		}
	}
}

func TestUniformBandHoldsWithinDwell(t *testing.T) {
	u := NewUniformBand(100, 200, 10*time.Second, rng.New(2))
	a := u.RateAt(sec(12))
	b := u.RateAt(sec(19.9))
	if a != b {
		t.Fatalf("rate changed within dwell slot: %v vs %v", a, b)
	}
	c := u.RateAt(sec(20.1))
	if a == c {
		t.Log("adjacent slots coincidentally equal (allowed but unlikely)")
	}
}

func TestUniformBandDeterministicRandomAccess(t *testing.T) {
	u := NewUniformBand(100, 200, time.Second, rng.New(3))
	// Query out of order, then in order: must agree.
	later := u.RateAt(sec(50))
	earlier := u.RateAt(sec(10))
	if u.RateAt(sec(50)) != later || u.RateAt(sec(10)) != earlier {
		t.Fatal("RateAt not deterministic under random access")
	}
}

func TestUniformBandActuallyVaries(t *testing.T) {
	u := NewUniformBand(100, 200, time.Second, rng.New(4))
	distinct := map[float64]bool{}
	for i := 0; i < 50; i++ {
		distinct[u.RateAt(sec(float64(i)))] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("only %d distinct rates over 50 slots", len(distinct))
	}
}

func TestUniformBandValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewUniformBand(1, 2, 0, rng.New(1)) },
		func() { NewUniformBand(5, 2, time.Second, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid UniformBand did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestSine(t *testing.T) {
	s := Sine{Mean: 1000, Amplitude: 500, Period: 60 * time.Second}
	if got := s.RateAt(0); !near(got, 1000, 1e-9) {
		t.Fatalf("RateAt(0)=%v", got)
	}
	if got := s.RateAt(sec(15)); !near(got, 1500, 1e-6) {
		t.Fatalf("RateAt(quarter)=%v", got)
	}
	if got := s.RateAt(sec(45)); !near(got, 500, 1e-6) {
		t.Fatalf("RateAt(3/4)=%v", got)
	}
}

func TestSineClampsAtZero(t *testing.T) {
	s := Sine{Mean: 100, Amplitude: 500, Period: 10 * time.Second}
	for i := 0; i < 100; i++ {
		if r := s.RateAt(sec(float64(i) / 10)); r < 0 {
			t.Fatalf("negative rate %v", r)
		}
	}
}

func TestSineZeroPeriod(t *testing.T) {
	s := Sine{Mean: 77, Amplitude: 10, Period: 0}
	if s.RateAt(sec(5)) != 77 {
		t.Fatal("zero-period sine should return mean")
	}
}

func TestSurge(t *testing.T) {
	s := Surge{Base: 1000, Peak: 5000, Start: sec(60), Duration: 30 * time.Second}
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 1000}, {sec(59.9), 1000}, {sec(60), 5000}, {sec(89.9), 5000}, {sec(90), 1000},
	}
	for _, c := range cases {
		if got := s.RateAt(c.t); got != c.want {
			t.Fatalf("RateAt(%v)=%v want %v", c.t, got, c.want)
		}
	}
}

func TestSteps(t *testing.T) {
	s, err := NewSteps([]Step{{0, 100}, {sec(10), 200}, {sec(20), 50}})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		t    sim.Time
		want float64
	}{
		{0, 100}, {sec(5), 100}, {sec(10), 200}, {sec(15), 200}, {sec(25), 50},
	}
	for _, c := range cases {
		if got := s.RateAt(c.t); got != c.want {
			t.Fatalf("RateAt(%v)=%v want %v", c.t, got, c.want)
		}
	}
}

func TestStepsValidation(t *testing.T) {
	if _, err := NewSteps(nil); err == nil {
		t.Error("empty steps accepted")
	}
	if _, err := NewSteps([]Step{{sec(10), 1}, {sec(5), 2}}); err == nil {
		t.Error("non-ascending steps accepted")
	}
	if _, err := NewSteps([]Step{{sec(5), 1}, {sec(5), 2}}); err == nil {
		t.Error("duplicate step times accepted")
	}
}

func TestScaledAndClamped(t *testing.T) {
	base := Constant{Rate: 100}
	if got := (Scaled{Inner: base, Factor: 2.5}).RateAt(0); got != 250 {
		t.Fatalf("Scaled=%v", got)
	}
	cl := Clamped{Inner: Surge{Base: 10, Peak: 10000, Start: 0, Duration: time.Second}, Min: 50, Max: 500}
	if got := cl.RateAt(0); got != 500 {
		t.Fatalf("clamp max: %v", got)
	}
	if got := cl.RateAt(sec(2)); got != 50 {
		t.Fatalf("clamp min: %v", got)
	}
}

func TestRecordsInConstantExact(t *testing.T) {
	n := RecordsIn(Constant{Rate: 1000}, 0, sec(2.5))
	if !near(n, 2500, 1e-6) {
		t.Fatalf("RecordsIn=%v want 2500", n)
	}
}

func TestRecordsInEmptyInterval(t *testing.T) {
	if RecordsIn(Constant{Rate: 1000}, sec(5), sec(5)) != 0 {
		t.Error("empty interval should integrate to 0")
	}
	if RecordsIn(Constant{Rate: 1000}, sec(5), sec(4)) != 0 {
		t.Error("inverted interval should integrate to 0")
	}
}

func TestRecordsInStepBoundary(t *testing.T) {
	s, _ := NewSteps([]Step{{0, 1000}, {sec(1), 3000}})
	n := RecordsIn(s, 0, sec(2))
	if !near(n, 4000, 1) {
		t.Fatalf("RecordsIn across step=%v want ~4000", n)
	}
}

func TestRecordsInSineApproximation(t *testing.T) {
	// Integral of a full sine period equals mean*period.
	s := Sine{Mean: 1000, Amplitude: 800, Period: 4 * time.Second}
	n := RecordsIn(s, 0, sec(4))
	if !near(n, 4000, 5) {
		t.Fatalf("RecordsIn over full period=%v want ~4000", n)
	}
}

func TestRecordsInAdditivity(t *testing.T) {
	// Property: integral over [a,c) = [a,b) + [b,c) at ms-aligned bounds.
	u := NewUniformBand(500, 1500, time.Second, rng.New(9))
	whole := RecordsIn(u, 0, sec(10))
	split := RecordsIn(u, 0, sec(4)) + RecordsIn(u, sec(4), sec(10))
	if !near(whole, split, 1e-6) {
		t.Fatalf("not additive: %v vs %v", whole, split)
	}
}

func TestStepperBoundaries(t *testing.T) {
	if (Constant{Rate: 1}).NextChange(sec(5)) != sim.Infinity {
		t.Error("Constant should never change")
	}
	u := NewUniformBand(1, 2, 4*time.Second, rng.New(1))
	if got := u.NextChange(sec(5)); got != sec(8) {
		t.Errorf("UniformBand NextChange(5s)=%v, want 8s", got)
	}
	if got := u.NextChange(sec(8)); got != sec(12) {
		t.Errorf("UniformBand NextChange(8s)=%v, want 12s", got)
	}
	s := Surge{Base: 1, Peak: 2, Start: sec(10), Duration: 5 * time.Second}
	if s.NextChange(0) != sec(10) || s.NextChange(sec(12)) != sec(15) || s.NextChange(sec(20)) != sim.Infinity {
		t.Error("Surge NextChange edges wrong")
	}
	st, _ := NewSteps([]Step{{0, 1}, {sec(3), 2}})
	if st.NextChange(sec(1)) != sec(3) || st.NextChange(sec(3)) != sim.Infinity {
		t.Error("Steps NextChange wrong")
	}
	// Wrappers delegate.
	if (Scaled{Inner: s, Factor: 2}).NextChange(0) != sec(10) {
		t.Error("Scaled NextChange not delegated")
	}
	if (Clamped{Inner: s, Min: 0, Max: 10}).NextChange(0) != sec(10) {
		t.Error("Clamped NextChange not delegated")
	}
	// Wrapping a non-Stepper forces fine sampling, never hangs.
	if nc := (Scaled{Inner: Sine{Mean: 1, Period: time.Second}, Factor: 1}).NextChange(sec(1)); nc <= sec(1) {
		t.Error("wrapper over non-Stepper returned non-advancing boundary")
	}
}

func TestRecordsInExactAcrossDwells(t *testing.T) {
	// Stepper integration must be exact: sum rate·dwell over slots.
	u := NewUniformBand(100, 200, time.Second, rng.New(21))
	var want float64
	for i := 0; i < 10; i++ {
		want += u.RateAt(sec(float64(i))) * 1.0
	}
	got := RecordsIn(u, 0, sec(10))
	if !near(got, want, 1e-9) {
		t.Fatalf("RecordsIn=%v want %v", got, want)
	}
}

func TestRecordsInPartialSegments(t *testing.T) {
	s := Surge{Base: 100, Peak: 1000, Start: sec(2), Duration: 3 * time.Second}
	// [1.5, 6.5): 0.5s at 100 + 3s at 1000 + 1.5s at 100 = 50+3000+150.
	got := RecordsIn(s, sec(1.5), sec(6.5))
	if !near(got, 3200, 1e-9) {
		t.Fatalf("RecordsIn=%v want 3200", got)
	}
}

func TestSample(t *testing.T) {
	ts, rates := Sample(Constant{Rate: 42}, sec(5), time.Second)
	if len(ts) != 5 || len(rates) != 5 {
		t.Fatalf("Sample lengths %d/%d", len(ts), len(rates))
	}
	if ts[0] != 0 || ts[4] != 4 {
		t.Fatalf("sample times %v", ts)
	}
	for _, r := range rates {
		if r != 42 {
			t.Fatalf("rates %v", rates)
		}
	}
}

func TestPaperWorkloadBands(t *testing.T) {
	// §6.2.2 bands: verify each configured band produces rates inside it.
	bands := []struct {
		name     string
		min, max float64
	}{
		{"LogisticRegression", 7000, 13000},
		{"LinearRegression", 80000, 120000},
		{"WordCount", 110000, 190000},
		{"PageAnalyze", 170000, 230000},
	}
	for _, b := range bands {
		u := NewUniformBand(b.min, b.max, 5*time.Second, rng.New(77).Split(b.name))
		for i := 0; i < 200; i++ {
			r := u.RateAt(sec(float64(i) * 2.5))
			if r < b.min || r > b.max {
				t.Fatalf("%s: rate %v outside [%v,%v]", b.name, r, b.min, b.max)
			}
		}
	}
}

func near(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// TestUniformBandMatchesSplitStream pins the closed-form slot draw to its
// definition: slot n's rate is Min + (Max−Min) times the first Float64 of
// the stream split off as "slot-n".
func TestUniformBandMatchesSplitStream(t *testing.T) {
	for _, seed := range []*rng.Stream{rng.New(1), rng.New(7919).Split("trace"),
		rng.New(77).Split("fleet").Split("LogisticRegression")} {
		u := NewUniformBand(7000, 13000, time.Second, seed)
		for slot := int64(-50); slot <= 20000; slot++ {
			want := 7000 + 6000*seed.Split(fmt.Sprintf("slot-%d", slot)).Float64()
			if got := u.RateAt(sim.Time(slot) * sim.Time(time.Second)); got != want {
				t.Fatalf("%s slot %d: RateAt %v, want %v", seed.Name(), slot, got, want)
			}
		}
	}
}

// TestUniformBandMemoMatchesDivision: with the slot span memo, RateAt and
// NextChange answer what the division formulas give, on random instants and
// on every slot boundary and its neighbours, below zero too, queried in a
// random order that hops between slots and returns to earlier ones.
func TestUniformBandMemoMatchesDivision(t *testing.T) {
	r := rng.New(5).Split("band-memo").Rand()
	for _, dwell := range []time.Duration{1, 3, 130 * time.Millisecond, 5 * time.Second, 20 * time.Second} {
		seed := rng.New(uint64(dwell)).Split("band")
		u := NewUniformBand(7000, 13000, dwell, seed)
		d := sim.Time(dwell)
		var ts []sim.Time
		for k := sim.Time(-3); k <= 40; k++ {
			ts = append(ts, k*d-1, k*d, k*d+1)
		}
		for i := 0; i < 2000; i++ {
			ts = append(ts, sim.Time(r.Int63n(int64(60*d)))-3*d)
		}
		for i := 0; i < 20000; i++ {
			tm := ts[r.Intn(len(ts))]
			slot := tm / d
			if r.Intn(2) == 0 {
				want := 7000 + 6000*seed.SplitFloat64("slot-", int64(slot))
				if got := u.RateAt(tm); got != want {
					t.Fatalf("dwell %v: RateAt(%v) = %v, want %v", dwell, tm, got, want)
				}
			} else if got, want := u.NextChange(tm), (slot+1)*d; got != want {
				t.Fatalf("dwell %v: NextChange(%v) = %v, want %v", dwell, tm, got, want)
			}
		}
	}
}

// countingSine is a non-Stepper trace that counts its RateAt calls.
type countingSine struct {
	Sine
	calls *int
}

func (c countingSine) RateAt(t sim.Time) float64 {
	*c.calls++
	return c.Sine.RateAt(t)
}

// TestRecordsInWrappedSmoothTrace: Scaled and Clamped around a trace that
// is not piecewise constant integrate with the millisecond midpoint rule,
// as the bare trace does, not in 1 ns steps.
func TestRecordsInWrappedSmoothTrace(t *testing.T) {
	calls := 0
	inner := countingSine{Sine: Sine{Mean: 1000, Amplitude: 800, Period: 7 * time.Second}, calls: &calls}
	from, to := sec(3.25), sec(3.35)
	bare := RecordsIn(inner, from, to)
	for _, tr := range []Trace{
		Scaled{Inner: inner, Factor: 2},
		&Scaled{Inner: inner, Factor: 2},
		Clamped{Inner: inner, Min: 0, Max: 1e9},
		Scaled{Inner: Clamped{Inner: inner, Min: 0, Max: 1e9}, Factor: 2},
	} {
		calls = 0
		got := RecordsIn(tr, from, to)
		if calls > 100 {
			t.Errorf("%s: %d inner RateAt calls over 100 ms, want at most 100", tr.Describe(), calls)
		}
		want := bare
		if _, clampOnly := tr.(Clamped); !clampOnly {
			want = 2 * bare
		}
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: RecordsIn %v, want %v", tr.Describe(), got, want)
		}
	}
	// A wrapper around a piecewise-constant trace still integrates exactly.
	s := Surge{Base: 100, Peak: 1000, Start: sec(2), Duration: 3 * time.Second}
	if got := RecordsIn(Scaled{Inner: s, Factor: 2}, sec(1.5), sec(6.5)); !near(got, 6400, 1e-9) {
		t.Errorf("Scaled surge RecordsIn=%v want 6400", got)
	}
}
