package metrics

import (
	"math"
	"strings"
	"testing"
)

// TestHistogramBucketBoundaries pins the inclusive-upper-bound (`le`)
// semantics of the exposition format: a sample exactly on a bound counts
// into that bound's bucket, and samples above the last bound appear only
// in +Inf.
func TestHistogramBucketBoundaries(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_seconds", "help", []float64{1, 2.5, 5})

	for _, v := range []float64{0.5, 1, 1.0001, 2.5, 5, 5.0001} {
		h.Observe(v)
	}

	out := r.String()
	for _, want := range []string{
		`test_seconds_bucket{le="1"} 2`,    // 0.5, 1
		`test_seconds_bucket{le="2.5"} 4`,  // + 1.0001, 2.5
		`test_seconds_bucket{le="5"} 5`,    // + 5
		`test_seconds_bucket{le="+Inf"} 6`, // + 5.0001
		"test_seconds_sum 15.0002",
		"test_seconds_count 6",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if h.c.count != 6 {
		t.Errorf("count = %d, want 6", h.c.count)
	}
}

// TestHistogramExactDecimalBounds checks that the standard ladders render
// with exact decimal bounds — 1000000 must print as "1000000", never in
// scientific notation, or the le labels stop matching PromQL queries.
func TestHistogramExactDecimalBounds(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_records", "help", RecordCountBuckets())
	h.Observe(1e6) // exactly on the 1000000 bound

	out := r.String()
	for _, want := range []string{
		`test_records_bucket{le="1000000"} 1`,
		`test_records_bucket{le="10000000"} 1`,
		`test_records_bucket{le="500000"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "e+") {
		t.Errorf("exposition uses scientific notation:\n%s", out)
	}
}

// TestHistogramDropsNaN checks NaN observations are discarded rather than
// poisoning the sum.
func TestHistogramDropsNaN(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("test_nan", "help", []float64{1})
	h.Observe(math.NaN())
	h.Observe(0.5)
	if h.c.count != 1 || h.c.sum != 0.5 {
		t.Errorf("after NaN + 0.5: count=%d sum=%v, want 1, 0.5", h.c.count, h.c.sum)
	}
}

// TestExpositionDeterministic registers families and labeled children in a
// scrambled order and checks the rendered text is sorted and stable.
func TestExpositionDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("zz_total", "z", L("kind", "b")).Inc()
		r.Gauge("aa_gauge", "a").Set(3)
		r.Counter("zz_total", "z", L("kind", "a")).Add(2)
		r.Counter("mm_total", "m").Inc()
		return r
	}
	out1, out2 := build().String(), build().String()
	if out1 != out2 {
		t.Fatalf("same registrations rendered differently:\n%s\nvs\n%s", out1, out2)
	}
	// Families in name order, children in label-signature order.
	aa := strings.Index(out1, "aa_gauge")
	mm := strings.Index(out1, "mm_total")
	zz := strings.Index(out1, "zz_total")
	if !(aa < mm && mm < zz) {
		t.Errorf("families not sorted by name:\n%s", out1)
	}
	ka := strings.Index(out1, `zz_total{kind="a"} 2`)
	kb := strings.Index(out1, `zz_total{kind="b"} 1`)
	if ka < 0 || kb < 0 || ka > kb {
		t.Errorf("children not sorted by label signature:\n%s", out1)
	}
}

// TestLabelEscaping checks backslash, quote, and newline escaping in label
// values.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "h", L("v", "a\\b\"c\nd")).Inc()
	want := `esc_total{v="a\\b\"c\nd"} 1`
	if out := r.String(); !strings.Contains(out, want+"\n") {
		t.Errorf("want %q in:\n%s", want, out)
	}
}

// TestHelpAndTypeHeaders checks the exposition carries HELP/TYPE per family.
func TestHelpAndTypeHeaders(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "counts things").Inc()
	r.Gauge("g_now", "gauges things").Set(1)
	r.Histogram("h_seconds", "buckets things", []float64{1}).Observe(0.5)
	out := r.String()
	for _, want := range []string{
		"# HELP c_total counts things\n# TYPE c_total counter\n",
		"# HELP g_now gauges things\n# TYPE g_now gauge\n",
		"# HELP h_seconds buckets things\n# TYPE h_seconds histogram\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestRegistrationConflictsPanic pins the fail-fast contract for programming
// errors: kind clashes, bucket clashes, malformed buckets, and counter
// decrements all panic.
func TestRegistrationConflictsPanic(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	r := NewRegistry()
	r.Counter("x_total", "h")
	mustPanic("kind clash", func() { r.Gauge("x_total", "h") })
	r.Histogram("y_seconds", "h", []float64{1, 2})
	mustPanic("bucket clash", func() { r.Histogram("y_seconds", "h", []float64{1, 3}) })
	mustPanic("non-ascending buckets", func() { r.Histogram("z_seconds", "h", []float64{2, 1}) })
	mustPanic("empty buckets", func() { r.Histogram("w_seconds", "h", nil) })
	mustPanic("counter decrease", func() { r.Counter("x_total", "h").Add(-1) })
}

// TestNilRegistryIsNoop checks the nil-sink contract instrumented code
// relies on: every constructor and method works on nil.
func TestNilRegistryIsNoop(t *testing.T) {
	var r *Registry
	r.Counter("a_total", "h").Inc()
	r.Gauge("b_now", "h").Set(5)
	r.Histogram("c_seconds", "h", []float64{1}).Observe(2)
	if got := r.String(); got != "" {
		t.Errorf("nil registry rendered %q", got)
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Errorf("nil WritePrometheus: %v", err)
	}
	var c *Counter
	c.Inc()
	if c.Value() != 0 {
		t.Error("nil counter has a value")
	}
	var g *Gauge
	g.Set(1)
	var h *Histogram
	h.Observe(1)
}

// TestInstrumentIdentity checks that re-registering the same (name, labels)
// returns a handle onto the same underlying state.
func TestInstrumentIdentity(t *testing.T) {
	r := NewRegistry()
	r.Counter("same_total", "h", L("k", "v")).Add(2)
	if got := r.Counter("same_total", "h", L("k", "v")).Value(); got != 2 {
		t.Errorf("second handle sees %v, want 2", got)
	}
}

// TestFormatValue pins the rendering rules the bucket bounds depend on.
func TestFormatValue(t *testing.T) {
	for _, tc := range []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12, "12"},
		{0.5, "0.5"},
		{2.5, "2.5"},
		{1000000, "1000000"},
		{-3, "-3"},
		{0.1, "0.1"},
	} {
		if got := string(appendValue(nil, tc.in)); got != tc.want {
			t.Errorf("appendValue(%v) = %q, want %q", tc.in, got, tc.want)
		}
	}
}
