package bench

import (
	"testing"
	"time"

	"nostop/internal/sim"
)

// BenchmarkScheduleFire measures the future-due path: heap push, pop,
// callback dispatch, node recycle.
func BenchmarkScheduleFire(b *testing.B) {
	c := sim.NewClock()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(c.Now()+sim.Time(time.Millisecond), fn)
		c.Step()
	}
}

// BenchmarkScheduleFireDeep keeps 1024 events resident so every push/pop
// sifts through a realistically deep heap.
func BenchmarkScheduleFireDeep(b *testing.B) {
	c := sim.NewClock()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		c.At(c.Now()+sim.Time(i+1)*sim.Time(time.Millisecond), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(c.Now()+sim.Time(1025)*sim.Time(time.Millisecond), fn)
		c.Step()
	}
}

// BenchmarkSameTimeBurst measures the due==now FIFO fast path, which
// bypasses the heap entirely.
func BenchmarkSameTimeBurst(b *testing.B) {
	c := sim.NewClock()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.At(c.Now(), fn)
		c.Step()
	}
}

// BenchmarkScheduleCancel measures schedule followed by cancel — the
// rewind/reschedule pattern controllers use — exercising heap removal and
// node recycling.
func BenchmarkScheduleCancel(b *testing.B) {
	c := sim.NewClock()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := c.At(c.Now()+sim.Time(time.Second), fn)
		c.Cancel(e)
	}
}

// BenchmarkTicker measures periodic-event churn: each tick fires and
// reschedules through the pool.
func BenchmarkTicker(b *testing.B) {
	c := sim.NewClock()
	tick := func() {}
	tk := c.NewTicker(time.Millisecond, tick)
	defer tk.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkTickersDeep is the tenant mix's clock: 32 tickers of one period
// on a lane over about 50 heap events due later. One op is one tick.
func BenchmarkTickersDeep(b *testing.B) {
	c := sim.NewClock()
	fn := func() {}
	for i := 0; i < 50; i++ {
		c.At(sim.Time(i+1)*sim.Time(time.Hour), fn)
	}
	for i := 0; i < 32; i++ {
		tk := c.NewTicker(100*time.Millisecond, fn)
		defer tk.Stop()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Step()
	}
}

// BenchmarkTickerRun drives tickers with RunUntil, which fires a ticker's
// next firing in place when nothing else pending is due first. Alone, as on
// a sweep's clock, nearly every firing fires in place; 32 tickers of one
// period over the deep heap, the tenant mix's clock, never do, since each
// firing ties with the next ticker's. One op is one tick (for 32 tickers,
// b.N rounded up to a whole period).
func BenchmarkTickerRun(b *testing.B) {
	b.Run("alone", func(b *testing.B) {
		c := sim.NewClock()
		tk := c.NewTicker(time.Millisecond, func() {})
		defer tk.Stop()
		b.ReportAllocs()
		b.ResetTimer()
		c.RunUntil(c.Now() + sim.Time(b.N)*sim.Time(time.Millisecond))
	})
	b.Run("deep32", func(b *testing.B) {
		c := sim.NewClock()
		fn := func() {}
		for i := 0; i < 50; i++ {
			c.At(sim.Time(i+1)*sim.Time(time.Hour), fn)
		}
		for i := 0; i < 32; i++ {
			tk := c.NewTicker(100*time.Millisecond, fn)
			defer tk.Stop()
		}
		b.ReportAllocs()
		b.ResetTimer()
		c.RunUntil(c.Now() + sim.Time((b.N+31)/32)*sim.Time(100*time.Millisecond))
	})
}
