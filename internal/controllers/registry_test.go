package controllers

import (
	"testing"
	"time"

	"nostop/internal/engine"
	"nostop/internal/ratetrace"
	"nostop/internal/rng"
	"nostop/internal/sim"
	"nostop/internal/workload"
)

// host wraps an engine the way a tenant's gate does: a type of its own
// that embeds the engine and intercepts Reconfigure. It keeps the
// listeners a controller registers, so a benchmark can deliver batches to
// them directly.
type host struct {
	*engine.Engine
	calls     int
	last      engine.Config
	listeners []engine.Listener
}

func (h *host) Reconfigure(cfg engine.Config) error {
	h.calls++
	h.last = cfg
	return h.Engine.Reconfigure(cfg)
}

func (h *host) AddListener(l engine.Listener) {
	h.listeners = append(h.listeners, l)
	h.Engine.AddListener(l)
}

// startedHost starts a logreg engine on a fresh clock at fixed seeds and
// attaches info's controller through a host around it.
func startedHost(tb testing.TB, info Info) (*host, Controller) {
	tb.Helper()
	wl, err := workload.New("logreg")
	if err != nil {
		tb.Fatal(err)
	}
	lo, hi := wl.RateBand()
	eng, err := engine.New(sim.NewClock(), engine.Options{
		Workload: wl,
		Trace:    ratetrace.NewUniformBand(lo, hi, 5*time.Second, rng.New(1)),
		Seed:     rng.New(2),
	})
	if err != nil {
		tb.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		tb.Fatal(err)
	}
	h := &host{Engine: eng}
	ctl, err := info.Attach(h, Build{Seed: rng.New(3)})
	if err != nil {
		tb.Fatal(err)
	}
	return h, ctl
}

// TestEveryEntryTunesThroughItsHost builds every registered controller on
// a host that is not an *engine.Engine and runs it for ten minutes. Every
// factory must accept the host, and every configuration change must pass
// through the host's Reconfigure — the seam a tenant's gate clamps grants
// at.
func TestEveryEntryTunesThroughItsHost(t *testing.T) {
	for _, info := range registry {
		t.Run(info.Name, func(t *testing.T) {
			h, ctl := startedHost(t, info)
			if (ctl == nil) != (info.New == nil) {
				t.Fatalf("Attach returned controller %v, but the entry has a factory: %v", ctl, info.New != nil)
			}
			eng := h.Engine
			eng.Clock().RunUntil(sim.Time(10 * time.Minute))
			if h.calls > 0 && eng.TargetConfig() != h.last {
				t.Errorf("engine set to run %v, but the host last forwarded %v", eng.TargetConfig(), h.last)
			}
			if h.calls == 0 && eng.Reconfigs() > 0 {
				t.Errorf("engine reconfigured %d times without a call through the host", eng.Reconfigs())
			}
			tuner := info.New != nil && info.Name != BackPressure
			if tuner && h.calls == 0 {
				t.Errorf("%s never reconfigured through its host", info.Name)
			}
		})
	}
}
