package workload

import (
	"math"
	"testing"
	"time"

	"nostop/internal/rng"
)

func TestNewByName(t *testing.T) {
	for _, name := range Names() {
		w, err := New(name)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if w.Name() == "" || w.Model() == nil {
			t.Fatalf("New(%q) returned incomplete workload", name)
		}
	}
	if _, err := New("nope"); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestAllReturnsFourPaperWorkloads(t *testing.T) {
	all := All()
	if len(all) != 4 {
		t.Fatalf("All()=%d workloads, want 4", len(all))
	}
	want := []string{"LogisticRegression", "LinearRegression", "WordCount", "PageAnalyze"}
	for i, w := range all {
		if w.Name() != want[i] {
			t.Errorf("All()[%d]=%s, want %s", i, w.Name(), want[i])
		}
	}
}

func TestRateBandsMatchPaper(t *testing.T) {
	want := map[string][2]float64{
		"LogisticRegression": {7000, 13000},
		"LinearRegression":   {80000, 120000},
		"WordCount":          {110000, 190000},
		"PageAnalyze":        {170000, 230000},
	}
	for _, w := range All() {
		min, max := w.RateBand()
		b := want[w.Name()]
		if min != b[0] || max != b[1] {
			t.Errorf("%s band [%v,%v], want %v", w.Name(), min, max, b)
		}
	}
}

func TestProcessingTimeIncreasesWithRecords(t *testing.T) {
	for _, w := range All() {
		m := w.Model()
		m.NoiseCV, m.IterJitter = 0, 0 // deterministic for the shape check
		noise := rng.New(1)
		small := m.ProcessingTime(10_000, 10, 9.4, noise)
		large := m.ProcessingTime(1_000_000, 10, 9.4, noise)
		if large <= small {
			t.Errorf("%s: time not increasing with batch size (%v vs %v)", w.Name(), small, large)
		}
	}
}

func TestProcessingTimeUShapeInExecutors(t *testing.T) {
	// Fig 3a: with a big enough batch, adding executors first helps then
	// hurts (coordination overhead). Verify decreasing at the left edge,
	// increasing at the right edge for a batch at the workload's rate.
	for _, w := range All() {
		m := w.Model()
		m.NoiseCV, m.IterJitter = 0, 0
		noise := rng.New(2)
		min, max := w.RateBand()
		n := int64((min + max) / 2 * 10) // 10-second batch
		at := func(e int) float64 {
			return m.ProcessingTime(n, e, 0.94*float64(e), noise).Seconds()
		}
		if at(2) <= at(6) {
			t.Errorf("%s: no speedup from 2→6 executors (%v vs %v)", w.Name(), at(2), at(6))
		}
		if at(60) <= at(30) {
			t.Errorf("%s: no overhead growth at high executor counts", w.Name())
		}
	}
}

func TestProcessingTimeFloor(t *testing.T) {
	m := &CostModel{Name: "tiny", RecordCost: 1e-12}
	d := m.ProcessingTime(1, 1, 1, rng.New(3))
	if d < time.Millisecond {
		t.Fatalf("processing time %v below 1ms floor", d)
	}
}

func TestProcessingTimePanicsOnBadArgs(t *testing.T) {
	m := NewWordCount().Model()
	for _, fn := range []func(){
		func() { m.ProcessingTime(1, 0, 1, rng.New(1)) },
		func() { m.ProcessingTime(1, 1, 0, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad args did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestIterFactorConvergesAndResets(t *testing.T) {
	m := NewLogisticRegression().Model()
	initial := m.iterFactor()
	if math.Abs(initial-2.0) > 1e-9 {
		t.Fatalf("initial iter factor %v, want 2.0", initial)
	}
	for i := 0; i < 200; i++ {
		m.NoteBatch()
	}
	converged := m.iterFactor()
	if converged > 1.01 {
		t.Fatalf("iter factor %v after 200 batches, want ≈1", converged)
	}
}

func TestIterFactorMonotoneDecreasing(t *testing.T) {
	m := NewLinearRegression().Model()
	prev := m.iterFactor()
	for i := 0; i < 50; i++ {
		m.NoteBatch()
		cur := m.iterFactor()
		if cur > prev {
			t.Fatalf("iter factor increased at batch %d: %v > %v", i, cur, prev)
		}
		prev = cur
	}
}

func TestNonIterativeWorkloadsHaveUnitFactor(t *testing.T) {
	for _, w := range []Workload{NewWordCount(), NewPageAnalyze()} {
		if f := w.Model().iterFactor(); f != 1 {
			t.Errorf("%s iter factor %v, want 1", w.Name(), f)
		}
	}
}

func TestMLBatchTimesShrinkAsModelFits(t *testing.T) {
	// §6.3: unfitted models take longer per batch. Compare the first and
	// the 100th batch at identical size/config without noise.
	m := NewLogisticRegression().Model()
	m.NoiseCV, m.IterJitter = 0, 0
	noise := rng.New(5)
	first := m.ProcessingTime(100_000, 10, 9.4, noise)
	for i := 0; i < 100; i++ {
		m.NoteBatch()
	}
	later := m.ProcessingTime(100_000, 10, 9.4, noise)
	if later >= first {
		t.Fatalf("fitted batch %v not faster than unfitted %v", later, first)
	}
	// Work term halves when iter factor goes 2→1, so the total should
	// drop noticeably (more than 20%).
	if later.Seconds() > 0.8*first.Seconds() {
		t.Fatalf("fitted speedup too small: %v vs %v", later, first)
	}
}

func TestNoiseProducesSpread(t *testing.T) {
	m := NewLogisticRegression().Model()
	noise := rng.New(6)
	seen := map[time.Duration]bool{}
	for i := 0; i < 20; i++ {
		seen[m.ProcessingTime(50_000, 10, 9.4, noise)] = true
	}
	if len(seen) < 15 {
		t.Fatalf("noisy processing times too repetitive: %d distinct of 20", len(seen))
	}
}

func TestWordCountMostStable(t *testing.T) {
	// §6.3: WordCount has the most stable processing times. Its modelled
	// noise must be the smallest of the four workloads.
	wc := NewWordCount().Model().NoiseCV
	for _, w := range All() {
		if w.Name() == "WordCount" {
			continue
		}
		if w.Model().NoiseCV <= wc {
			t.Errorf("%s NoiseCV %v not above WordCount's %v", w.Name(), w.Model().NoiseCV, wc)
		}
	}
}

func TestPageAnalyzeMostIOBound(t *testing.T) {
	pa := NewPageAnalyze().Model().IOWeight
	for _, w := range All() {
		if w.Name() == "PageAnalyze" {
			continue
		}
		if w.Model().IOWeight >= pa {
			t.Errorf("%s IOWeight %v not below PageAnalyze's %v", w.Name(), w.Model().IOWeight, pa)
		}
	}
}
