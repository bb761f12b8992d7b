package ratetrace

import (
	"testing"
	"time"

	"nostop/internal/rng"
	"nostop/internal/sim"
)

// A slot miss draws the slot's rate in closed form: no stream name, no
// math/rand source, no allocation.
func TestAllocsUniformBandFreshSlots(t *testing.T) {
	u := NewUniformBand(100, 200, time.Second, rng.New(1).Split("trace"))
	at := sim.Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at += sim.Time(time.Second) // every call a new slot
		u.RateAt(at)
	})
	if allocs != 0 {
		t.Fatalf("UniformBand.RateAt over fresh slots allocates %.1f/op, want 0", allocs)
	}
}

// BenchmarkUniformBandSlots measures a rate lookup that misses the slot
// memo: one closed-form slot draw per op.
func BenchmarkUniformBandSlots(b *testing.B) {
	u := NewUniformBand(7000, 13000, 5*time.Second, rng.New(1).Split("perfbench/sweep"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rateSink += u.RateAt(sim.Time(i) * sim.Time(5*time.Second))
	}
}

var rateSink float64
