package tenant

import (
	"nostop/internal/engine"
)

// Gate sits between a tenant's controller and its engine. It embeds the
// engine, so it satisfies core.Host, and overrides only Reconfigure: it
// records the controller's executor demand and clamps the forwarded
// configuration to the allocator's current grant, so a per-app controller
// keeps optimizing freely in its own configuration space while the
// cluster-level allocator retains the final say over capacity. The
// controller still observes real batch completions (through AddListener on
// the engine), so it learns the performance of the granted configuration,
// not the requested one — which is what makes competing tuners coexist
// without fighting the allocator.
type Gate struct {
	*engine.Engine
	demand int // executors the controller last asked for
	grant  int // executors the allocator currently allows
}

// NewGate wraps an engine with an initial grant. The initial demand is the
// engine's starting executor count.
func NewGate(eng *engine.Engine, grant int) *Gate {
	return &Gate{Engine: eng, demand: eng.Config().Executors, grant: grant}
}

// Reconfigure implements core.System: the requested executor count is
// recorded as the tenant's demand, then clamped to the live grant before
// reaching the engine. Interval and block changes pass through untouched.
func (g *Gate) Reconfigure(cfg engine.Config) error {
	g.demand = cfg.Executors
	if cfg.Executors > g.grant {
		cfg.Executors = g.grant
	}
	if cfg.Executors < 1 {
		cfg.Executors = 1
	}
	return g.Engine.Reconfigure(cfg)
}

// Demand returns the controller's standing executor request.
func (g *Gate) Demand() int { return g.demand }

// Grant returns the allocator's current grant.
func (g *Gate) Grant() int { return g.grant }

// setGrant installs a new grant and reconciles the engine toward it: a
// shrink preempts immediately (the engine applies it at its next batch
// boundary, freeing cores for other tenants) and cuts any request still
// pending from a larger grant; a raise re-submits the clamped standing
// demand so a previously-throttled tenant grows into its new allowance
// without waiting for its controller's next move. Returns true when the
// call preempted live executors.
func (g *Gate) setGrant(grant int) bool {
	if grant < 1 {
		grant = 1
	}
	prev := g.grant
	g.grant = grant
	cfg, target := g.Config(), g.TargetConfig()
	preempted := false
	switch {
	case cfg.Executors > grant:
		preempted = true
		cfg.Executors = grant
		_ = g.Engine.Reconfigure(cfg) // within bounds by construction
	case grant > prev && g.demand > cfg.Executors:
		want := g.demand
		if want > grant {
			want = grant
		}
		if want != cfg.Executors {
			cfg.Executors = want
			_ = g.Engine.Reconfigure(cfg)
		}
	case target.Executors > grant:
		// A request forwarded under a larger grant is still pending; cut it
		// to this grant before the next batch boundary applies it.
		target.Executors = grant
		_ = g.Engine.Reconfigure(target)
	}
	// Allocation may have come up short earlier (another tenant held the
	// cores); now that grants moved, retry toward configured strength.
	g.EnsureLiveExecutors()
	return preempted
}
