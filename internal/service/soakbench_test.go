package service_test

import (
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/faults"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/service"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// BenchmarkSimSoakHour runs one sim-mode soak-hour as perfbench's
// service-soak round builds it: linreg on its rate band, the 300 ms RPC
// deadline, and the scripted plan of a broker kill at 12 min for 6 min and
// a refused controller→engine link at 30 min for 4 min. Every op soaks
// seed 1, so its allocs/op and B/op are one soak-hour's allocation and
// repeat from run to run.
func BenchmarkSimSoakHour(b *testing.B) {
	const d = time.Hour
	plan := faults.ProcPlan{
		{Kind: faults.PeerKill, At: sim.Time(d / 5), Duration: d / 10, Peer: service.PeerBroker},
		{Kind: faults.LinkRefuse, At: sim.Time(d / 2), Duration: d / 15,
			From: service.PeerController, To: service.PeerEngine},
	}
	const seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		wl, err := workload.New("linreg")
		if err != nil {
			b.Fatal(err)
		}
		clock := sim.NewClock()
		lo, hi := wl.RateBand()
		c, err := service.NewCluster(service.ClusterConfig{
			Mode:     service.ModeSim,
			Seed:     seed,
			Workload: wl,
			Trace:    ratetrace.NewUniformBand(lo, hi, 20*time.Second, rng.New(seed).Split("trace")),
			Initial:  engine.Config{BatchInterval: 5 * time.Second, Executors: 8},
			MaxFetch: 5000,
			Clock:    clock,
			RPC: service.ClientOptions{
				Timeout: 300 * time.Millisecond, MaxAttempts: 2,
				BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second,
				BreakerThreshold: 3, BreakerCooldown: 2 * time.Second,
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := c.Start(); err != nil {
			b.Fatal(err)
		}
		inj, err := faults.AttachProc(c, faults.ClockSchedule{Clock: clock}, plan)
		if err != nil {
			b.Fatal(err)
		}
		inj.Observe(c.Registry(), nil)
		c.RunSim(d)
		c.Stop()
	}
}
