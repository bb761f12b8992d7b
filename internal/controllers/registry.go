// Package controllers is the controller registry: the one table of tuners a
// run can attach, and the factories that build them. Every host drives a
// controller through core.Host — a single-app engine (fleet.Assemble) and a
// tenant's allocator gate (tenant.Run) alike — so any registered name runs
// wherever the registry is consulted. Service mode hosts only the SPSA
// controller: its wire carries core.System, not the runtime knobs.
package controllers

import (
	"fmt"
	"strings"

	"nostop/internal/baselines"
	"nostop/internal/core"
	"nostop/internal/gptuner"
	"nostop/internal/metrics"
	"nostop/internal/rltuner"
	"nostop/internal/rng"
	"nostop/internal/tracing"
)

// Registered controller names; each registry entry's Summary describes its
// controller.
const (
	Static       = "static"
	NoStop       = "nostop"
	BackPressure = "backpressure"
	BayesOpt     = "bo"
	GP           = "gp"
	RL           = "rl"
)

// Controller is a tuner a registry factory built on a host. Attach
// registers it with that host and applies its first decision.
type Controller interface {
	Attach() error
}

// Build is what a controller factory draws on besides the host.
type Build struct {
	// Seed is the stream a factory splits its own stream from:
	// "controller" for nostop, "bo", "gp" and "rl" for the others.
	Seed *rng.Stream
	// Space, when non-nil, is the widened configuration space the run
	// tunes over.
	Space *core.ConfigSpace
	// Metrics and Tracer are the run's sinks; nil disables them.
	Metrics *metrics.Registry
	Tracer  *tracing.Tracer
	// NoStop, when non-nil, edits the nostop controller's options before
	// construction (the ablations' knobs, a tenant's θ_initial).
	NoStop func(*core.Options)
}

// Info is one entry of the controller registry — the single source of
// truth for which tuners a run can attach and how each is built. The fleet
// and scenario spec validators, tenant mix validation, fleet.Assemble,
// tenant.Run, the CLIs and the cross-controller conformance suite all
// consult this table, so adding a controller here is the one required
// registration step (see docs/CONTROLLERS.md for the full recipe).
type Info struct {
	// Name is the spec string selecting the controller.
	Name string
	// Summary is the one-line catalog description surfaced in docs and CLI
	// help.
	Summary string
	// ReconfiguresDuringFaults declares that the controller may change the
	// configuration while a fault window is active. The conformance suite
	// exempts such controllers from the no-reconfiguration-during-faults
	// contract; every other controller is held to it.
	ReconfiguresDuringFaults bool
	// New builds the controller on a started host; Attach attaches it. Nil
	// means the run holds its initial configuration (static).
	New func(host core.Host, b Build) (Controller, error)
}

// registry lists every controller in its canonical order. back-pressure
// acts on every batch (its PID deliberately fights faults) and the BayesOpt
// baseline predates fault admission, so both opt into reconfiguring during
// fault windows; the rest are failure-aware.
var registry = []Info{
	{Name: Static, Summary: "holds the initial configuration for the whole run"},
	{Name: NoStop, Summary: "the paper's failure-aware SPSA controller (§5)", New: newNoStop},
	{Name: BackPressure, Summary: "Spark's PID back-pressure on the ingest cap",
		ReconfiguresDuringFaults: true, New: newBackPressure},
	{Name: BayesOpt, Summary: "Bayesian-optimization baseline over the two paper parameters",
		ReconfiguresDuringFaults: true, New: newBayesOpt},
	{Name: GP, Summary: "uncertainty-aware GP tuner over the widened config space", New: newGP},
	{Name: RL, Summary: "tabular Q-learning tuner over the widened config space", New: newRL},
}

func newNoStop(host core.Host, b Build) (Controller, error) {
	opts := core.Options{Seed: b.Seed.Split("controller"), Metrics: b.Metrics, Tracer: b.Tracer}
	if b.Space != nil {
		// SPSA tunes the block axis too when the space declares it.
		_, opts.TuneBlockInterval = b.Space.Axis(core.ParamBlockInterval)
	}
	if b.NoStop != nil {
		b.NoStop(&opts)
	}
	return built(core.New(host, opts))
}

func newBackPressure(host core.Host, _ Build) (Controller, error) {
	return built(baselines.NewBackPressure(host))
}

func newBayesOpt(host core.Host, b Build) (Controller, error) {
	return built(baselines.NewBayesOpt(host, baselines.BOOptions{Seed: b.Seed.Split("bo")}))
}

func newGP(host core.Host, b Build) (Controller, error) {
	opts := gptuner.Options{Seed: b.Seed.Split("gp")}
	if b.Space != nil {
		opts.Space = *b.Space
	}
	return built(gptuner.New(host, opts))
}

func newRL(host core.Host, b Build) (Controller, error) {
	opts := rltuner.Options{Seed: b.Seed.Split("rl")}
	if b.Space != nil {
		opts.Space = *b.Space
	}
	return built(rltuner.New(host, opts))
}

// built widens a constructor's concrete result to a Controller, keeping a
// failed construction's controller nil rather than a typed nil.
func built[C Controller](c C, err error) (Controller, error) {
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Attach builds the entry's controller on a started host and attaches it.
// Static builds nothing and returns a nil Controller.
func (i Info) Attach(host core.Host, b Build) (Controller, error) {
	if i.New == nil {
		return nil, nil
	}
	ctl, err := i.New(host, b)
	if err != nil {
		return nil, err
	}
	if err := ctl.Attach(); err != nil {
		return nil, err
	}
	return ctl, nil
}

// All returns the registry entries in canonical order.
func All() []Info {
	return append([]Info(nil), registry...)
}

// Names returns the registered controller names in canonical order.
func Names() []string {
	names := make([]string, len(registry))
	for i, c := range registry {
		names[i] = c.Name
	}
	return names
}

// Lookup returns the registry entry for name.
func Lookup(name string) (Info, bool) {
	for _, c := range registry {
		if c.Name == name {
			return c, true
		}
	}
	return Info{}, false
}

// UnknownError is the shared rejection for an unregistered controller
// name. The fleet and scenario validators and fleet.Assemble return exactly
// this error, so a typo fails with identical text whichever entry point
// sees it first; tenant mix validation wraps it with the tenant's name.
func UnknownError(name string) error {
	return fmt.Errorf("controllers: unknown controller %q (want %s)", name, strings.Join(Names(), ", "))
}
