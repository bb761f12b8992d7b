package controllers

import (
	"runtime"
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/sim"
)

// BenchmarkDecision measures each registered controller's decision path:
// what it costs to take one completed batch. Each op attaches a fresh
// controller to a started engine host and delivers it one recorded batch
// history, straight to the listener it registered; the engine's clock does
// not move, so only the controller's own work is timed. The history is
// recorded once per controller, from a two-hour logreg run under that
// controller. The metrics are per delivered batch: ns/batch, and
// allocs/batch counted over the timed deliveries alone.
func BenchmarkDecision(b *testing.B) {
	for _, info := range registry {
		if info.New == nil {
			continue
		}
		var history []engine.BatchStats
		b.Run(info.Name, func(b *testing.B) {
			if history == nil {
				h, _ := startedHost(b, info)
				h.Engine.AddListener(engine.ListenerFunc(func(bs engine.BatchStats) {
					history = append(history, bs)
				}))
				h.Engine.Clock().RunUntil(sim.Time(2 * time.Hour))
			}
			var ms runtime.MemStats
			var mallocs uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				h, _ := startedHost(b, info)
				runtime.ReadMemStats(&ms)
				before := ms.Mallocs
				b.StartTimer()
				for _, bs := range history {
					for _, l := range h.listeners {
						l.OnBatchComplete(bs)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms)
				mallocs += ms.Mallocs - before
				b.StartTimer()
			}
			batches := float64(b.N) * float64(len(history))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/batches, "ns/batch")
			b.ReportMetric(float64(mallocs)/batches, "allocs/batch")
		})
	}
}
