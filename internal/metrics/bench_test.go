package metrics_test

import (
	"bytes"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/metrics"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// BenchmarkWritePrometheus renders the registry of an engine observed for
// one virtual hour, the exposition each observed run writes at its end.
func BenchmarkWritePrometheus(b *testing.B) {
	clock := sim.NewClock()
	wl := workload.NewWordCount()
	lo, hi := wl.RateBand()
	reg := metrics.NewRegistry()
	eng, err := engine.New(clock, engine.Options{
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(lo, hi, 5*time.Second, rng.New(1).Split("t")),
		Seed:     rng.New(1).Split("e"),
		Initial:  engine.Config{BatchInterval: 10 * time.Second, Executors: 12},
		Metrics:  reg,
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		b.Fatal(err)
	}
	clock.RunUntil(sim.Time(time.Hour))
	var buf bytes.Buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := reg.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}
