package spsa

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"nostop/internal/rng"
)

func mustNew(t *testing.T) *Optimizer {
	t.Helper()
	o, err := New([]float64{10, 10}, []float64{1, 1}, []float64{20, 20},
		DefaultParams(19, 2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestNewValidation(t *testing.T) {
	lo, hi := []float64{0, 0}, []float64{1, 1}
	p := DefaultParams(1, 1)
	if _, err := New(nil, nil, nil, p, nil); err == nil {
		t.Error("empty initial accepted")
	}
	if _, err := New([]float64{0.5}, lo, hi, p, nil); !errors.Is(err, ErrDimensionMismatch) {
		t.Errorf("dim mismatch err=%v", err)
	}
	if _, err := New([]float64{0.5, 0.5}, []float64{1, 0}, []float64{0, 1}, p, nil); err == nil {
		t.Error("inverted bounds accepted")
	}
	bad := p
	bad.Aa = 0
	if _, err := New([]float64{0.5, 0.5}, lo, hi, bad, nil); err == nil {
		t.Error("zero a accepted")
	}
	bad = p
	bad.Alpha, bad.Gamma = 0.1, 0.6
	if _, err := New([]float64{0.5, 0.5}, lo, hi, bad, nil); err == nil {
		t.Error("alpha <= gamma accepted")
	}
}

func TestInitialClampedIntoBox(t *testing.T) {
	o, err := New([]float64{100, -5}, []float64{1, 1}, []float64{20, 20}, DefaultParams(19, 2), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	th := o.Theta()
	if th[0] != 20 || th[1] != 1 {
		t.Fatalf("Theta=%v, want clamped [20 1]", th)
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams(20, 2)
	if p.A != 1 {
		t.Errorf("A=%v, want 1 (§5.6)", p.A)
	}
	if p.Aa != 10 {
		t.Errorf("a=%v, want half the range (§5.6)", p.Aa)
	}
	if p.C != 2 {
		t.Errorf("c=%v, want measurement std (§5.6)", p.C)
	}
	if p.Alpha != 0.602 || p.Gamma != 0.101 {
		t.Errorf("exponents %v/%v, want 0.602/0.101", p.Alpha, p.Gamma)
	}
}

func TestGainsMatchAlgorithmOne(t *testing.T) {
	o := mustNew(t) // A=1, a=9.5, c=2
	ak, ck := o.Gains()
	// First iteration (k=1 after Algorithm 1's k++): a/(1+1+1)^0.602.
	wantAk := 9.5 / math.Pow(3, 0.602)
	wantCk := 2.0 / math.Pow(2, 0.101)
	if math.Abs(ak-wantAk) > 1e-12 || math.Abs(ck-wantCk) > 1e-12 {
		t.Fatalf("gains (%v, %v), want (%v, %v)", ak, ck, wantAk, wantCk)
	}
}

func TestGainsDecayAndConditions(t *testing.T) {
	o := mustNew(t)
	var prevA, prevC float64 = math.Inf(1), math.Inf(1)
	sumA, sumRatioSq := 0.0, 0.0
	for i := 0; i < 2000; i++ {
		ak, ck := o.Gains()
		if ak >= prevA || ck >= prevC {
			t.Fatalf("gains not strictly decreasing at k=%d", i)
		}
		prevA, prevC = ak, ck
		sumA += ak
		sumRatioSq += (ak / ck) * (ak / ck)
		plus, minus, _ := o.Perturb()
		_, _ = plus, minus
		if _, err := o.Update(1, 0); err != nil {
			t.Fatal(err)
		}
	}
	// Σak diverges (grows with horizon) while Σ(ak/ck)² converges: the
	// tail terms must become negligible.
	ak, ck := o.Gains()
	if ak <= 0 || ck <= 0 {
		t.Fatal("gains must stay positive")
	}
	tail := (ak / ck) * (ak / ck)
	if tail > sumRatioSq/100 {
		t.Fatalf("(ak/ck)² tail %v not vanishing vs sum %v", tail, sumRatioSq)
	}
	if sumA < 100*prevA {
		t.Fatalf("Σak %v does not dominate its last term %v", sumA, prevA)
	}
}

func TestPerturbGeometry(t *testing.T) {
	o := mustNew(t)
	_, ck := o.Gains()
	plus, minus, err := o.Perturb()
	if err != nil {
		t.Fatal(err)
	}
	th := o.Theta()
	for i := range th {
		dp := plus[i] - th[i]
		dm := th[i] - minus[i]
		if math.Abs(math.Abs(dp)-ck) > 1e-12 {
			t.Fatalf("component %d offset %v, want ±ck=%v", i, dp, ck)
		}
		if math.Abs(dp-dm) > 1e-12 {
			t.Fatalf("perturbation not symmetric: +%v -%v", dp, dm)
		}
	}
}

func TestPerturbTwiceFails(t *testing.T) {
	o := mustNew(t)
	if _, _, err := o.Perturb(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.Perturb(); !errors.Is(err, ErrPerturbTwice) {
		t.Fatalf("err=%v", err)
	}
}

func TestUpdateWithoutPerturbFails(t *testing.T) {
	o := mustNew(t)
	if _, err := o.Update(1, 2); !errors.Is(err, ErrNoPendingPerturb) {
		t.Fatalf("err=%v", err)
	}
}

func TestUpdateMovesDownhill(t *testing.T) {
	// Objective increasing in both coordinates: y⁺ > y⁻ whenever the probe
	// moved up; SPSA must step down.
	o, err := New([]float64{10, 10}, []float64{0, 0}, []float64{20, 20}, DefaultParams(20, 1), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	obj := func(x []float64) float64 { return x[0] + x[1] }
	start := o.Theta()
	for i := 0; i < 10; i++ {
		plus, minus, _ := o.Perturb()
		if _, err := o.Update(obj(plus), obj(minus)); err != nil {
			t.Fatal(err)
		}
	}
	end := o.Theta()
	if end[0] >= start[0] || end[1] >= start[1] {
		t.Fatalf("did not move downhill: %v → %v", start, end)
	}
}

func TestBoundsNeverViolatedProperty(t *testing.T) {
	// Property: for any noisy measurements, every probe and every estimate
	// stays inside the box.
	f := func(seed uint64, noise []float64) bool {
		o, err := New([]float64{5, 15}, []float64{1, 1}, []float64{20, 20}, DefaultParams(19, 3), rng.New(seed))
		if err != nil {
			return false
		}
		inBox := func(v []float64) bool {
			for _, x := range v {
				if x < 1 || x > 20 {
					return false
				}
			}
			return true
		}
		for i := 0; i < len(noise)/2; i++ {
			plus, minus, err := o.Perturb()
			if err != nil || !inBox(plus) || !inBox(minus) {
				return false
			}
			th, err := o.Update(noise[2*i]*100, noise[2*i+1]*100)
			if err != nil || !inBox(th) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng.New(31).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestMinimizeNoisyQuadratic(t *testing.T) {
	// G(x) = (x0-3)² + (x1+2)² + noise; SPSA should land near (3, -2).
	noise := rng.New(11).Split("obj")
	obj := func(x []float64) float64 {
		return (x[0]-3)*(x[0]-3) + (x[1]+2)*(x[1]+2) + noise.Norm(0, 0.1)
	}
	got, err := Minimize(obj, []float64{8, 8}, []float64{-10, -10}, []float64{10, 10},
		DefaultParams(20, 0.5), rng.New(12), 300, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got[0]-3) > 0.7 || math.Abs(got[1]+2) > 0.7 {
		t.Fatalf("converged to %v, want ≈(3,-2)", got)
	}
}

func TestMinimizeConstrainedOptimum(t *testing.T) {
	// Optimum outside the box: SPSA must converge to the boundary.
	obj := func(x []float64) float64 { return (x[0] - 100) * (x[0] - 100) }
	got, err := Minimize(obj, []float64{5}, []float64{0}, []float64{10},
		DefaultParams(10, 1), rng.New(13), 200, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] < 9.5 {
		t.Fatalf("converged to %v, want near upper bound 10", got)
	}
}

func TestMinimizeTrajectoryObserved(t *testing.T) {
	var steps []Step
	_, err := Minimize(func(x []float64) float64 { return x[0] * x[0] },
		[]float64{5}, []float64{-10}, []float64{10},
		DefaultParams(20, 1), rng.New(14), 25,
		func(s Step) { steps = append(steps, s) })
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) != 25 {
		t.Fatalf("observed %d steps, want 25", len(steps))
	}
	for i, s := range steps {
		if s.K != i+1 {
			t.Fatalf("step %d has K=%d", i, s.K)
		}
		if len(s.Theta) != 1 || len(s.ThetaPlus) != 1 || len(s.ThetaMinus) != 1 {
			t.Fatal("step vectors missing")
		}
	}
}

func TestResetRestartsGains(t *testing.T) {
	o := mustNew(t)
	for i := 0; i < 50; i++ {
		o.Perturb()
		o.Update(1, 0)
	}
	akLate, _ := o.Gains()
	if err := o.Reset([]float64{10, 10}); err != nil {
		t.Fatal(err)
	}
	if o.K() != 0 {
		t.Fatalf("K=%d after reset", o.K())
	}
	akFresh, _ := o.Gains()
	if akFresh <= akLate {
		t.Fatalf("reset did not restore large steps: %v vs %v", akFresh, akLate)
	}
	th := o.Theta()
	if th[0] != 10 || th[1] != 10 {
		t.Fatalf("reset Theta=%v", th)
	}
	// A pending perturbation must be discarded by Reset.
	o.Perturb()
	o.Reset([]float64{5, 5})
	if _, _, err := o.Perturb(); err != nil {
		t.Fatalf("Perturb after reset: %v", err)
	}
	if err := o.Reset([]float64{1}); !errors.Is(err, ErrDimensionMismatch) {
		t.Fatalf("bad reset err=%v", err)
	}
}

func TestDeterministicForSeed(t *testing.T) {
	run := func() []float64 {
		got, _ := Minimize(func(x []float64) float64 { return x[0]*x[0] + x[1]*x[1] },
			[]float64{4, -4}, []float64{-5, -5}, []float64{5, 5},
			DefaultParams(10, 1), rng.New(77), 50, nil)
		return got
	}
	a, b := run(), run()
	if a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("same seed diverged: %v vs %v", a, b)
	}
}

func TestScaleRoundTrip(t *testing.T) {
	s, err := NewScale(1000, 40000, 1, 20)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.ToNorm(1000); got != 1 {
		t.Fatalf("ToNorm(lo)=%v", got)
	}
	if got := s.ToNorm(40000); got != 20 {
		t.Fatalf("ToNorm(hi)=%v", got)
	}
	if got := s.FromNorm(s.ToNorm(17500)); math.Abs(got-17500) > 1e-9 {
		t.Fatalf("round trip: %v", got)
	}
	// Clamping outside physical/normalised ranges.
	if s.ToNorm(-5) != 1 || s.ToNorm(1e9) != 20 {
		t.Error("ToNorm not clamped")
	}
	if s.FromNorm(0) != 1000 || s.FromNorm(25) != 40000 {
		t.Error("FromNorm not clamped")
	}
	if _, err := NewScale(5, 5, 0, 1); err == nil {
		t.Error("degenerate scale accepted")
	}
}

func TestScaleRoundTripProperty(t *testing.T) {
	s, _ := NewScale(1, 20, 1, 20) // §6.2.1 scales executors into [1,20]
	f := func(raw float64) bool {
		v := 1 + math.Abs(math.Mod(raw, 19))
		back := s.FromNorm(s.ToNorm(v))
		return math.Abs(back-v) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{Rand: rng.New(37).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestMaxStepClipsUpdates(t *testing.T) {
	params := DefaultParams(19, 2)
	params.MaxStep = 0.5
	o, err := New([]float64{10, 10}, []float64{1, 1}, []float64{20, 20}, params, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		before := o.Theta()
		o.Perturb()
		// Enormous measurement gap: unclipped, the step would cross the box.
		if _, err := o.Update(1e6, 0); err != nil {
			t.Fatal(err)
		}
		after := o.Theta()
		var d2 float64
		for j := range before {
			d := after[j] - before[j]
			d2 += d * d
		}
		if math.Sqrt(d2) > 0.5+1e-9 {
			t.Fatalf("step length %v exceeds MaxStep 0.5", math.Sqrt(d2))
		}
	}
}

func TestNoClipWithoutMaxStep(t *testing.T) {
	o, err := New([]float64{10, 10}, []float64{1, 1}, []float64{20, 20}, DefaultParams(19, 2), rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	o.Perturb()
	o.Update(1e6, 0)
	th := o.Theta()
	// With such a gap the unclipped step slams into a bound.
	atBound := false
	for _, v := range th {
		if v == 1 || v == 20 {
			atBound = true
		}
	}
	if !atBound {
		t.Fatalf("unclipped huge step did not reach a bound: %v", th)
	}
}

func TestResetAtWarmRestart(t *testing.T) {
	o, _ := New([]float64{10, 10}, []float64{1, 1}, []float64{20, 20}, DefaultParams(19, 2), rng.New(23))
	for i := 0; i < 40; i++ {
		o.Perturb()
		o.Update(1, 0)
	}
	if err := o.ResetAt([]float64{5, 5}, 4); err != nil {
		t.Fatal(err)
	}
	if o.K() != 4 {
		t.Fatalf("K=%d after warm restart, want 4", o.K())
	}
	akWarm, _ := o.Gains()
	o2, _ := New([]float64{5, 5}, []float64{1, 1}, []float64{20, 20}, DefaultParams(19, 2), rng.New(23))
	akFresh, _ := o2.Gains()
	if akWarm >= akFresh {
		t.Fatalf("warm ak %v not below fresh ak %v", akWarm, akFresh)
	}
	if err := o.ResetAt([]float64{5, 5}, -1); err == nil {
		t.Fatal("negative warm restart accepted")
	}
}

// BenchmarkSPSAIteration measures one perturb-and-update step on a
// two-parameter problem.
func BenchmarkSPSAIteration(b *testing.B) {
	opt, err := New([]float64{10, 10}, []float64{1, 1}, []float64{20, 20},
		DefaultParams(19, 2), rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plus, minus, err := opt.Perturb()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := opt.Update(plus[0]+plus[1], minus[0]+minus[1]); err != nil {
			b.Fatal(err)
		}
	}
}
