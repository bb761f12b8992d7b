package stats

import (
	"math"
	"testing"
	"testing/quick"

	"nostop/internal/rng"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestOnlineBasic(t *testing.T) {
	var o Online
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		o.Add(x)
	}
	if o.N() != 8 {
		t.Fatalf("N=%d", o.N())
	}
	if !almostEqual(o.Mean(), 5, 1e-12) {
		t.Fatalf("Mean=%v", o.Mean())
	}
	if !almostEqual(o.Std(), 2, 1e-12) {
		t.Fatalf("Std=%v", o.Std())
	}
}

func TestOnlineEmptyAndSingle(t *testing.T) {
	var o Online
	if o.Mean() != 0 || o.Std() != 0 || o.Var() != 0 {
		t.Fatal("empty accumulator not zero")
	}
	o.Add(42)
	if o.Mean() != 42 || o.Std() != 0 || o.SampleVar() != 0 {
		t.Fatalf("single observation: mean=%v std=%v", o.Mean(), o.Std())
	}
}

func TestOnlineSampleVar(t *testing.T) {
	var o Online
	for _, x := range []float64{1, 2, 3, 4, 5} {
		o.Add(x)
	}
	if !almostEqual(o.SampleVar(), 2.5, 1e-12) {
		t.Fatalf("SampleVar=%v, want 2.5", o.SampleVar())
	}
}

func TestOnlineReset(t *testing.T) {
	var o Online
	o.Add(1)
	o.Add(2)
	o.Reset()
	if o.N() != 0 || o.Mean() != 0 {
		t.Fatal("Reset did not clear accumulator")
	}
}

func TestWindowEviction(t *testing.T) {
	w := NewWindow(3)
	for _, x := range []float64{1, 2, 3, 4, 5} {
		w.Add(x)
	}
	if w.count != 3 {
		t.Fatalf("count=%d, want 3", w.count)
	}
	vals := values(w)
	want := []float64{3, 4, 5}
	for i := range want {
		if vals[i] != want[i] {
			t.Fatalf("Values=%v want %v", vals, want)
		}
	}
	if !almostEqual(w.Mean(), 4, 1e-12) {
		t.Fatalf("Mean=%v", w.Mean())
	}
}

func TestWindowStdMatchesBatch(t *testing.T) {
	w := NewWindow(10)
	r := rng.New(8).Rand()
	for i := 0; i < 100; i++ {
		w.Add(r.Float64() * 50)
	}
	got := w.Std()
	want := Std(values(w))
	if !almostEqual(got, want, 1e-9) {
		t.Fatalf("window Std=%v batch Std=%v", got, want)
	}
}

func TestWindowEmptyAndReset(t *testing.T) {
	w := NewWindow(4)
	if w.Mean() != 0 || w.Std() != 0 || w.count != 0 {
		t.Fatal("empty window not zero")
	}
	w.Add(2)
	if w.Std() != 0 {
		t.Fatal("single-element std not zero")
	}
}

func TestWindowBadCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewWindow(0) did not panic")
		}
	}()
	NewWindow(0)
}

func TestWindowValuesOrderProperty(t *testing.T) {
	// Property: after adding any sequence, the window holds the last
	// min(len, cap) elements in order.
	f := func(raw []float64, capRaw uint8) bool {
		capacity := int(capRaw%16) + 1
		w := NewWindow(capacity)
		for _, x := range raw {
			w.Add(x)
		}
		vals := values(w)
		n := len(raw)
		if n > capacity {
			n = capacity
		}
		if len(vals) != n {
			return false
		}
		tail := raw[len(raw)-n:]
		for i := range tail {
			if vals[i] != tail[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng.New(11).Rand()}); err != nil {
		t.Error(err)
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 10}, {0.5, 5.5}, {-0.5, 1}, {1.5, 10},
	}
	for _, c := range cases {
		if got := Percentile(sorted, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Percentile(%.2f)=%v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 0.5) != 0 {
		t.Error("Percentile of empty slice not 0")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{5, 1, 3, 2, 4})
	if s.N != 5 || s.Min != 1 || s.Max != 5 || !almostEqual(s.Mean, 3, 1e-12) || !almostEqual(s.P50, 3, 1e-12) {
		t.Fatalf("Summary=%+v", s)
	}
	zero := Summarize(nil)
	if zero.N != 0 || zero.Mean != 0 {
		t.Fatal("empty Summarize not zero")
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("Summarize mutated input: %v", in)
	}
}

func TestMeanStdHelpers(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) != 0")
	}
	if !almostEqual(Mean([]float64{1, 2, 3}), 2, 1e-12) {
		t.Error("Mean wrong")
	}
	if !almostEqual(Std([]float64{2, 4, 4, 4, 5, 5, 7, 9}), 2, 1e-12) {
		t.Error("Std wrong")
	}
}

func TestWelfordStability(t *testing.T) {
	// Large offset: naive sum-of-squares would catastrophically cancel.
	var o Online
	base := 1e9
	for _, x := range []float64{4, 7, 13, 16} {
		o.Add(base + x)
	}
	if !almostEqual(o.Mean(), base+10, 1e-3) {
		t.Fatalf("Mean=%v", o.Mean())
	}
	if !almostEqual(o.SampleVar(), 30, 1e-3) {
		t.Fatalf("SampleVar=%v want 30", o.SampleVar())
	}
}

// TestWindowAddWrapsLikeModulo holds Add, whose head wraps by a compare, to
// the modulo it replaced: the same slots, head, count and bits of sum and
// sum of squares after every add, at capacities 1, 2, 3 and 600.
func TestWindowAddWrapsLikeModulo(t *testing.T) {
	r := rng.New(9).Split("window-modulo").Rand()
	for _, capacity := range []int{1, 2, 3, 600} {
		w := NewWindow(capacity)
		ref := Window{buf: make([]float64, capacity)}
		for i := 0; i < 5000; i++ {
			x := r.NormFloat64() * 1e3
			w.Add(x)
			if ref.count == len(ref.buf) {
				old := ref.buf[ref.head]
				ref.sum -= old
				ref.sumsq -= old * old
			} else {
				ref.count++
			}
			ref.buf[ref.head] = x
			ref.head = (ref.head + 1) % len(ref.buf)
			ref.sum += x
			ref.sumsq += x * x
			if w.head != ref.head || w.count != ref.count ||
				math.Float64bits(w.sum) != math.Float64bits(ref.sum) ||
				math.Float64bits(w.sumsq) != math.Float64bits(ref.sumsq) {
				t.Fatalf("capacity %d, add %d: head %d count %d sum %v sumsq %v; modulo gives %d %d %v %v",
					capacity, i, w.head, w.count, w.sum, w.sumsq, ref.head, ref.count, ref.sum, ref.sumsq)
			}
		}
	}
}

// values returns the window's stored values oldest-first.
func values(w *Window) []float64 {
	out := make([]float64, 0, w.count)
	start := w.head - w.count
	for i := 0; i < w.count; i++ {
		out = append(out, w.buf[((start+i)%len(w.buf)+len(w.buf))%len(w.buf)])
	}
	return out
}
