package metrics

import "testing"

// Nil instruments are the disabled-observability hot path: every engine and
// broker call site invokes them unconditionally, so they must not allocate.
func TestAllocsNilInstruments(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(3)
		h.Observe(0.5)
	})
	if allocs != 0 {
		t.Fatalf("nil-instrument ops allocate %.1f/op, want 0", allocs)
	}
}

// Live instruments sit on the same per-record path; after registration they
// must also be allocation-free.
func TestAllocsLiveInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "test counter")
	g := r.Gauge("g", "test gauge")
	h := r.Histogram("h_seconds", "test histogram", DelaySecondsBuckets())
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(4)
		h.Observe(0.25)
	})
	if allocs != 0 {
		t.Fatalf("live-instrument ops allocate %.1f/op, want 0", allocs)
	}
}
