package baselines

import (
	"math"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func newEngine(t *testing.T, mutate func(*engine.Options)) (*sim.Clock, *engine.Engine) {
	t.Helper()
	clock := sim.NewClock()
	opts := engine.Options{
		Workload: workload.NewWordCount(),
		Trace:    ratetrace.Constant{Rate: 150000},
		Seed:     rng.New(21),
		Initial:  engine.Config{BatchInterval: 20 * time.Second, Executors: 10},
	}
	if mutate != nil {
		mutate(&opts)
	}
	eng, err := engine.New(clock, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	return clock, eng
}

// --- GP tests ---

func TestGPValidation(t *testing.T) {
	if _, err := NewGP(0, 1, 1); err == nil {
		t.Error("zero length scale accepted")
	}
	if _, err := NewGP(1, 0, 1); err == nil {
		t.Error("zero signal variance accepted")
	}
	if _, err := NewGP(1, 1, -1); err == nil {
		t.Error("negative noise accepted")
	}
	gp, _ := NewGP(1, 1, 0.01)
	if err := gp.Fit([][]float64{{1}}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if err := gp.Fit(nil, nil); err == nil {
		t.Error("empty fit accepted")
	}
}

func TestGPInterpolatesNoiseFree(t *testing.T) {
	gp, _ := NewGP(1.0, 4.0, 1e-6)
	xs := [][]float64{{0}, {1}, {2}, {3}}
	ys := []float64{5, 3, 4, 6}
	if err := gp.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		mean, variance := gp.Predict(x)
		if math.Abs(mean-ys[i]) > 0.01 {
			t.Fatalf("Predict(%v)=%v, want %v", x, mean, ys[i])
		}
		if variance > 0.01 {
			t.Fatalf("variance %v at training point", variance)
		}
	}
}

func TestGPUncertaintyGrowsAwayFromData(t *testing.T) {
	gp, _ := NewGP(0.5, 1.0, 0.01)
	if err := gp.Fit([][]float64{{0}, {1}}, []float64{0, 1}); err != nil {
		t.Fatal(err)
	}
	_, vNear := gp.Predict([]float64{0.5})
	_, vFar := gp.Predict([]float64{5})
	if vFar <= vNear {
		t.Fatalf("variance should grow away from data: near %v far %v", vNear, vFar)
	}
	// Far from data the posterior reverts to the (centred) prior mean.
	mFar, _ := gp.Predict([]float64{100})
	if math.Abs(mFar-0.5) > 0.05 {
		t.Fatalf("far mean %v, want prior ≈0.5", mFar)
	}
}

func TestGPPriorBeforeFit(t *testing.T) {
	gp, _ := NewGP(1, 2, 0.5)
	mean, variance := gp.Predict([]float64{3})
	if mean != 0 || math.Abs(variance-2.5) > 1e-12 {
		t.Fatalf("prior (%v, %v), want (0, 2.5)", mean, variance)
	}
	if gp.N() != 0 {
		t.Fatal("N before fit")
	}
}

func TestExpectedImprovementProperties(t *testing.T) {
	gp, _ := NewGP(1.0, 4.0, 0.01)
	if err := gp.Fit([][]float64{{0}, {2}}, []float64{10, 2}); err != nil {
		t.Fatal(err)
	}
	// EI is non-negative everywhere.
	for x := -1.0; x <= 4; x += 0.25 {
		if ei := gp.ExpectedImprovement([]float64{x}, 2); ei < 0 {
			t.Fatalf("negative EI at %v", x)
		}
	}
	// EI near the worst observed point is lower than near the best.
	eiWorst := gp.ExpectedImprovement([]float64{0}, 2)
	eiBest := gp.ExpectedImprovement([]float64{2.3}, 2)
	if eiBest <= eiWorst {
		t.Fatalf("EI should favour the promising region: best %v worst %v", eiBest, eiWorst)
	}
}

func TestStdNormHelpers(t *testing.T) {
	if math.Abs(stdNormCDF(0)-0.5) > 1e-12 {
		t.Error("CDF(0) != 0.5")
	}
	if math.Abs(stdNormPDF(0)-1/math.Sqrt(2*math.Pi)) > 1e-12 {
		t.Error("PDF(0) wrong")
	}
	if stdNormCDF(6) < 0.999 || stdNormCDF(-6) > 0.001 {
		t.Error("CDF tails wrong")
	}
}

// --- Bayesian optimization controller ---

func TestBayesOptValidation(t *testing.T) {
	if _, err := NewBayesOpt(nil, BOOptions{}); err == nil {
		t.Error("nil engine accepted")
	}
	_, eng := newEngine(t, nil)
	if _, err := NewBayesOpt(eng, BOOptions{InitialDesign: 10, MaxEvaluations: 5}); err == nil {
		t.Error("budget below design accepted")
	}
}

func TestBayesOptFindsGoodConfig(t *testing.T) {
	clock, eng := newEngine(t, nil)
	bo, err := NewBayesOpt(eng, BOOptions{Seed: rng.New(3), MaxEvaluations: 30})
	if err != nil {
		t.Fatal(err)
	}
	if err := bo.Attach(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(14400)))
	if len(bo.Evaluations()) < 5 {
		t.Fatalf("only %d evaluations", len(bo.Evaluations()))
	}
	best, ok := bo.Best()
	if !ok {
		t.Fatal("no best")
	}
	// The WordCount frontier at 150k rec/s is ≈3-5s; anything ≤ 12s with a
	// small objective means BO found the good region.
	if best.Config.BatchInterval > 12*time.Second {
		t.Fatalf("best config %v far from optimum", best.Config)
	}
	if best.Y > 15 {
		t.Fatalf("best objective %v too large", best.Y)
	}
	if !bo.Done() {
		t.Log("search still running at horizon (allowed but unusual)")
	} else if bo.DoneAt() == 0 {
		t.Fatal("DoneAt not recorded")
	}
	if bo.ConfigureSteps() < len(bo.Evaluations()) {
		t.Fatalf("ConfigureSteps %d below evaluations %d", bo.ConfigureSteps(), len(bo.Evaluations()))
	}
}

func TestBayesOptAttachTwice(t *testing.T) {
	_, eng := newEngine(t, nil)
	bo, _ := NewBayesOpt(eng, BOOptions{})
	if err := bo.Attach(); err != nil {
		t.Fatal(err)
	}
	if err := bo.Attach(); err == nil {
		t.Fatal("double attach accepted")
	}
}

func TestBayesOptSystemSurvives(t *testing.T) {
	// Even though BO probes unstable corners, the drain guard must keep
	// the queue bounded.
	clock, eng := newEngine(t, nil)
	bo, _ := NewBayesOpt(eng, BOOptions{Seed: rng.New(9)})
	bo.Attach()
	clock.RunUntil(sim.Time(sec(10800)))
	if q := eng.QueueLen(); q > 12 {
		t.Fatalf("queue %d at horizon", q)
	}
}

// --- Back pressure ---

func TestBackPressureStabilisesOverload(t *testing.T) {
	// Overloaded fixed config: without back pressure the queue diverges
	// (TestUnstableConfigQueueGrows in engine). With it, the rate cap
	// must keep the queue bounded.
	clock, eng := newEngine(t, func(o *engine.Options) {
		o.Workload = workload.NewLogisticRegression()
		o.Trace = ratetrace.Constant{Rate: 10000}
		o.Initial = engine.Config{BatchInterval: 5 * time.Second, Executors: 4}
	})
	bp, err := NewBackPressure(eng)
	if err != nil {
		t.Fatal(err)
	}
	if err := bp.Attach(); err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(sim.Time(sec(3600)))
	if q := eng.QueueLen(); q > 8 {
		t.Fatalf("queue %d despite back pressure", q)
	}
	if eng.DroppedByCap() == 0 {
		t.Fatal("back pressure never throttled an overloaded system")
	}
	if bp.Updates() == 0 || bp.Rate() <= 0 {
		t.Fatalf("PID never updated: updates=%d rate=%v", bp.Updates(), bp.Rate())
	}
	// The throttle must be near the system's actual capacity, not the floor.
	if bp.Rate() < 500 {
		t.Fatalf("rate collapsed to %v", bp.Rate())
	}
}

func TestBackPressureDoesNotThrottleStableSystem(t *testing.T) {
	clock, eng := newEngine(t, func(o *engine.Options) {
		o.Initial = engine.Config{BatchInterval: 10 * time.Second, Executors: 16}
	})
	bp, _ := NewBackPressure(eng)
	bp.Attach()
	clock.RunUntil(sim.Time(sec(1800)))
	// A healthy system processes faster than it ingests, so the PID cap
	// stays above the actual arrival rate and nothing is dropped.
	if dropped := eng.DroppedByCap(); dropped > int64(0.01*150000*1800) {
		t.Fatalf("back pressure dropped %d records from a stable system", dropped)
	}
}

func TestBackPressureValidation(t *testing.T) {
	if _, err := NewBackPressure(nil); err == nil {
		t.Error("nil engine accepted")
	}
	_, eng := newEngine(t, nil)
	bp, _ := NewBackPressure(eng)
	bp.Attach()
	if err := bp.Attach(); err == nil {
		t.Error("double attach accepted")
	}
}

func TestEvaluationObjectiveConsistent(t *testing.T) {
	// BayesOpt scores with Eq. 3 (ρ = 2): for a stable evaluation the
	// objective equals the interval.
	clock, eng := newEngine(t, nil)
	bo, _ := NewBayesOpt(eng, BOOptions{Seed: rng.New(29), MaxEvaluations: 8})
	bo.Attach()
	clock.RunUntil(sim.Time(sec(7200)))
	stable := 0
	for _, e := range bo.Evaluations() {
		if math.Abs(e.Y-e.Config.BatchInterval.Seconds()) < 1e-9 {
			stable++
		}
	}
	if stable == 0 {
		t.Fatal("no evaluation scored as stable; objective wiring suspect")
	}
}

// BenchmarkGPFitPredict measures fitting the GP to 40 two-dimensional
// observations and predicting one point.
func BenchmarkGPFitPredict(b *testing.B) {
	r := rng.New(9)
	xs := make([][]float64, 40)
	ys := make([]float64, 40)
	for i := range xs {
		xs[i] = []float64{r.Float64(), r.Float64()}
		ys[i] = r.Norm(10, 3)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gp, err := NewGP(0.2, 9, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := gp.Fit(xs, ys); err != nil {
			b.Fatal(err)
		}
		if _, v := gp.Predict([]float64{0.5, 0.5}); v <= 0 {
			b.Fatal("bad variance")
		}
	}
}
